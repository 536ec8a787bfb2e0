package learn

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"solarsched/internal/atomicio"
	"solarsched/internal/obs"
	"solarsched/internal/store"
)

// telemetrySeal is the envelope label of a telemetry segment file; sealing
// it under a store.Header (length + SHA-256 header) makes torn or
// corrupt segments detectable and skippable, never fatal.
const telemetrySeal = "solarsched-telemetry"

// Record is one serving-time observation: what a node reported at a period
// boundary and what the serving model answered. PrevPowers is the raw
// climate signal the trainer reconstructs drifted traces from; AccDMR is
// the realized deadline-miss rate that weights training and feeds the
// promotion gate's view of live performance.
type Record struct {
	// Seq orders records across flushes and restarts.
	Seq uint64 `json:"seq"`
	// Key is the model lineage the decision was served from (see Key).
	Key string `json:"key"`
	// Tenant is the authenticated tenant, "" when tenancy is off.
	Tenant string `json:"tenant,omitempty"`

	// Observed node state, the /v1/decide inputs.
	PrevPowers  []float64 `json:"prev_powers,omitempty"`
	Voltages    []float64 `json:"voltages,omitempty"`
	AccDMR      float64   `json:"acc_dmr"`
	PeriodOfDay int       `json:"period_of_day"`
	ActiveCap   int       `json:"active_cap"`

	// The decision served and the model that produced it.
	Cap         int     `json:"cap"`
	Alpha       float64 `json:"alpha"`
	Switch      bool    `json:"switch"`
	ModelDigest string  `json:"model_digest,omitempty"`
}

// TelemetryConfig tunes the log.
type TelemetryConfig struct {
	// MaxRecords bounds the records retained on disk; the oldest segment
	// is compacted away when the bound is exceeded. 0 means 200000.
	MaxRecords int
	// FlushEvery is the in-memory buffer size that triggers a background
	// flush to a sealed segment file. 0 means 256. The buffer is bounded
	// at 4×FlushEvery: if flushing cannot keep up, further appends are
	// dropped (and counted) rather than growing without bound.
	FlushEvery int
}

// TelemetryLog is the bounded, crash-safe telemetry accumulator: appends
// go to an in-memory buffer that a background goroutine (or an explicit
// Flush) persists as sealed segment files under dir. Every write is
// atomic (temp+fsync+rename) and enveloped, so a crash leaves only whole,
// verifiable segments — at most one buffer's worth of records is lost.
type TelemetryLog struct {
	dir string
	cfg TelemetryConfig

	mu      sync.Mutex
	buf     []Record
	segs    []telemetrySegment
	total   int // records across flushed segments
	seq     uint64
	segSeq  uint64
	closed  bool
	flushCh chan struct{}
	done    chan struct{}

	mAppended  *obs.Counter
	mDropped   *obs.Counter
	mCompacted *obs.Counter
	mTorn      *obs.Counter
	mFlushes   *obs.Counter
	mFlushErrs *obs.Counter
	mBuffered  *obs.Gauge
}

type telemetrySegment struct {
	path  string
	count int
}

// segmentPayload is the JSON body sealed into one segment file.
type segmentPayload struct {
	Records []Record `json:"records"`
}

// OpenTelemetry opens (creating if necessary) the telemetry log at dir and
// adopts the segments a previous process left behind. Torn or corrupt
// segments are deleted and counted, never served. reg may be nil.
func OpenTelemetry(dir string, cfg TelemetryConfig, reg *obs.Registry) (*TelemetryLog, error) {
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = 200000
	}
	if cfg.FlushEvery <= 0 {
		cfg.FlushEvery = 256
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("learn: telemetry dir: %w", err)
	}
	t := &TelemetryLog{
		dir:        dir,
		cfg:        cfg,
		flushCh:    make(chan struct{}, 1),
		done:       make(chan struct{}),
		mAppended:  reg.Counter("learn_telemetry_appended_total"),
		mDropped:   reg.Counter("learn_telemetry_dropped_total"),
		mCompacted: reg.Counter("learn_telemetry_compacted_total"),
		mTorn:      reg.Counter("learn_telemetry_torn_segments_total"),
		mFlushes:   reg.Counter("learn_telemetry_flushes_total"),
		mFlushErrs: reg.Counter("learn_telemetry_flush_errors_total"),
		mBuffered:  reg.Gauge("learn_telemetry_buffered"),
	}
	if err := t.adopt(); err != nil {
		return nil, err
	}
	go t.flusher()
	return t, nil
}

// adopt scans dir for segments from a previous process, validating each
// and continuing the sequence numbers.
func (t *TelemetryLog) adopt() error {
	entries, err := os.ReadDir(t.dir)
	if err != nil {
		return fmt.Errorf("learn: scanning telemetry dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".tlog" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(t.dir, name)
		recs, err := readSegment(path)
		if err != nil {
			t.mTorn.Inc()
			os.Remove(path)
			continue
		}
		t.segs = append(t.segs, telemetrySegment{path: path, count: len(recs)})
		t.total += len(recs)
		for _, r := range recs {
			if r.Seq > t.seq {
				t.seq = r.Seq
			}
		}
		var segNum uint64
		if _, err := fmt.Sscanf(name, "seg-%d.tlog", &segNum); err == nil && segNum >= t.segSeq {
			t.segSeq = segNum + 1
		}
	}
	return nil
}

func readSegment(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := atomicio.Unseal(store.Header(telemetrySeal), data)
	if err != nil {
		return nil, err
	}
	var seg segmentPayload
	if err := json.Unmarshal(payload, &seg); err != nil {
		return nil, fmt.Errorf("learn: segment %s: %w", filepath.Base(path), err)
	}
	return seg.Records, nil
}

// Append adds one record to the log. It never blocks on disk: the record
// joins the in-memory buffer and a background flush persists it. When the
// buffer is saturated (the flusher cannot keep up) the record is dropped
// and counted — backpressure must never reach the decide hot path.
func (t *TelemetryLog) Append(rec Record) {
	t.mu.Lock()
	if t.closed || len(t.buf) >= 4*t.cfg.FlushEvery {
		t.mu.Unlock()
		t.mDropped.Inc()
		return
	}
	t.seq++
	rec.Seq = t.seq
	t.buf = append(t.buf, rec)
	n := len(t.buf)
	t.mu.Unlock()
	t.mAppended.Inc()
	t.mBuffered.Set(float64(n))
	if n >= t.cfg.FlushEvery {
		select {
		case t.flushCh <- struct{}{}:
		default:
		}
	}
}

// flusher drains flush signals until Close.
func (t *TelemetryLog) flusher() {
	defer close(t.done)
	for range t.flushCh {
		if err := t.Flush(); err != nil {
			t.mFlushErrs.Inc()
		}
	}
}

// Flush persists the in-memory buffer as one sealed segment and enforces
// the retention bound.
func (t *TelemetryLog) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.flushLocked()
}

func (t *TelemetryLog) flushLocked() error {
	if len(t.buf) == 0 {
		return nil
	}
	payload, err := json.Marshal(segmentPayload{Records: t.buf})
	if err != nil {
		return fmt.Errorf("learn: encoding segment: %w", err)
	}
	sealed, err := atomicio.Seal(store.Header(telemetrySeal), payload)
	if err != nil {
		return err
	}
	path := filepath.Join(t.dir, fmt.Sprintf("seg-%010d.tlog", t.segSeq))
	if err := atomicio.WriteFile(path, sealed, 0o644); err != nil {
		return fmt.Errorf("learn: writing segment: %w", err)
	}
	t.segSeq++
	t.segs = append(t.segs, telemetrySegment{path: path, count: len(t.buf)})
	t.total += len(t.buf)
	t.buf = t.buf[:0]
	t.mFlushes.Inc()
	t.mBuffered.Set(0)
	// Retention: compact oldest-first until back under budget. Keeping at
	// least the newest segment means a single oversized flush still lands.
	for t.total > t.cfg.MaxRecords && len(t.segs) > 1 {
		oldest := t.segs[0]
		os.Remove(oldest.path)
		t.segs = t.segs[1:]
		t.total -= oldest.count
		t.mCompacted.Add(float64(oldest.count))
	}
	return nil
}

// Len returns the number of records currently retained (flushed + buffered).
func (t *TelemetryLog) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total + len(t.buf)
}

// Drain flushes, reads every retained record in order, removes the
// consumed segments and returns the records — the trainer's once-per-cycle
// bulk read. Torn segments (possible only under external interference;
// flushes are atomic) are skipped and counted.
func (t *TelemetryLog) Drain() ([]Record, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.flushLocked(); err != nil {
		return nil, err
	}
	var out []Record
	for _, seg := range t.segs {
		recs, err := readSegment(seg.path)
		if err != nil {
			t.mTorn.Inc()
			os.Remove(seg.path)
			continue
		}
		out = append(out, recs...)
		os.Remove(seg.path)
	}
	t.segs = nil
	t.total = 0
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// Close flushes and stops the background flusher. The log must not be
// appended to after Close.
func (t *TelemetryLog) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	err := t.flushLocked()
	t.mu.Unlock()
	close(t.flushCh)
	<-t.done
	return err
}
