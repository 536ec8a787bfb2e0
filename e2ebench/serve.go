package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"solarsched/internal/core"
	"solarsched/internal/fleet"
	"solarsched/internal/rng"
)

// daemonPath is the solarschedd binary run.sh builds from the checkout.
const daemonPath = buildDir + "/solarschedd"

// serveJobGolden is the aggregate digest of serveJob.
const serveJobGolden = "efa7ca1646eadea3354c16d8c0c29a69f13c0ab9d64d6b5506ddb46bf391e9d0"

// decideLimitMs is the latency limit a decide rung's p99 must meet.
const decideLimitMs = 50

// ladder is the open-loop decide rate ladder, requests per second. It
// brackets what one connection sustains beside the job stream on a
// 2-core host (about 700/s; about 1400/s with no jobs running).
var ladder = []float64{250, 500, 750, 1000, 1500}

// decideGraphs are the two trained configurations decide requests target.
var decideGraphs = []string{"wam", "ecg"}

// decidePool is how many distinct decide requests each graph contributes.
const decidePool = 256

// serveJob is the closed-loop fleet job: 4 runs over a fixed 7-day trace,
// on the same trained networks the decides use, so after set-up it is warm.
// The seed draws the decide requests only: the job is the same at every
// seed, so its golden digest holds at every seed and its cost does not
// vary with the seed.
func serveJob() *fleet.FileSpec {
	train := quickTrain()
	return &fleet.FileSpec{
		Defaults: fleet.RunSpec{H: 4, Train: &train, Trace: fleet.TraceSpec{Kind: "gen", Days: 7, Seed: 1, DayOfYear: 80}},
		Runs: []fleet.RunSpec{
			{Graph: "wam", Scheduler: "proposed"},
			{Graph: "wam", Scheduler: "inter"},
			{Graph: "ecg", Scheduler: "proposed"},
			{Graph: "ecg", Scheduler: "intra"},
		},
	}
}

// daemon is one solarschedd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// startDaemon starts solarschedd with default flags on a free loopback
// port and waits until it answers /healthz.
func startDaemon(ctx context.Context) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(daemonPath, "-addr", addr)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s (run.sh builds it): %w", daemonPath, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from ProcessState in stop
		close(d.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("solarschedd exited during start-up: %v", cmd.ProcessState)
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("solarschedd not healthy after 15s")
		}
	}
}

// stop drains the daemon with SIGTERM (killing it if the drain hangs),
// waits for it to exit and returns its peak resident set in MB.
func (d *daemon) stop() float64 {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// oneConnClient is an HTTP client that holds at most one connection.
func oneConnClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
}

// decideCase is one decide request and the in-process answer it must get.
type decideCase struct {
	body []byte
	want decideWire
}

// decideWire is the /v1/decide response body.
type decideWire struct {
	Cap          int     `json:"cap"`
	Alpha        float64 `json:"alpha"`
	Stage        string  `json:"stage"`
	Te           []bool  `json:"te"`
	Switch       bool    `json:"switch"`
	Migrate      bool    `json:"migrate"`
	EThJoules    float64 `json:"eth_joules"`
	UsableJoules float64 `json:"usable_joules"`
}

// decideCases draws the decide request set from seed and answers every
// request in process with core.Decide on the network fleet.NetworkFor
// trains for the same configuration.
func decideCases(ctx context.Context, c *fleet.Cache, seed uint64) ([]decideCase, []float64, error) {
	r := rng.New(seed ^ 0x5e7e)
	train := quickTrain()
	var cases []decideCase
	var micro []float64
	for _, g := range decideGraphs {
		pc, net, err := fleet.NetworkFor(ctx, c, nil, g, 4, train)
		if err != nil {
			return nil, nil, err
		}
		tr, err := c.Trace(ctx, trainTraceConfig(&train))
		if err != nil {
			return nil, nil, err
		}
		reqs := decideRequests(r, pc, tr, decidePool)
		us, err := decideMicroUs(pc, net, reqs)
		if err != nil {
			return nil, nil, err
		}
		micro = append(micro, us)
		for _, req := range reqs {
			d, err := core.Decide(pc, net, req)
			if err != nil {
				return nil, nil, err
			}
			stage := "inter"
			if d.Intra {
				stage = "intra"
			}
			body, err := json.Marshal(map[string]any{
				"graph": g, "h": 4, "train": train,
				"last_period_powers": req.PrevPowers, "voltages": req.Voltages,
				"accumulated_dmr": req.AccumulatedDMR, "period_of_day": req.PeriodOfDay,
				"active_cap": req.ActiveCap,
			})
			if err != nil {
				return nil, nil, err
			}
			cases = append(cases, decideCase{body: body, want: decideWire{
				Cap: d.Cap, Alpha: d.Alpha, Stage: stage, Te: d.Te, Switch: d.Switch,
				Migrate: d.Migrate, EThJoules: d.EThJoules, UsableJoules: d.UsableJoules,
			}})
		}
	}
	// Interleave the graphs so consecutive requests alternate networks.
	perm := make([]decideCase, len(cases))
	for i := range cases {
		perm[i] = cases[(i%len(decideGraphs))*decidePool+i/len(decideGraphs)]
	}
	return perm, micro, nil
}

// decider posts decides over one connection and checks every answer.
type decider struct {
	client *http.Client
	base   string
	cases  []decideCase
	// verified remembers response bodies already checked per case, so a
	// repeated identical answer costs one byte comparison.
	verified [][]byte
	mismatch error
}

var errStatus = errors.New("non-2xx response")

// do sends case i%len(cases) with request id rid. It returns an error for a
// transport failure, a timeout or a non-2xx answer; a wrong answer is
// recorded in d.mismatch.
func (d *decider) do(i int, rid string) error {
	k := i % len(d.cases)
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/decide", bytes.NewReader(d.cases[k].body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%w: %d %s", errStatus, resp.StatusCode, bytes.TrimSpace(body))
	}
	if d.verified[k] != nil && bytes.Equal(d.verified[k], body) {
		return nil
	}
	var got decideWire
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding decide response: %w", err)
	}
	if !reflect.DeepEqual(got, d.cases[k].want) {
		if d.mismatch == nil {
			d.mismatch = fmt.Errorf("decide case %d: daemon answered %+v, core.Decide %+v", k, got, d.cases[k].want)
		}
		return nil
	}
	d.verified[k] = body
	return nil
}

// jobRunner posts the fleet job and checks its digest.
type jobRunner struct {
	client *http.Client
	base   string
	body   []byte
}

type jobStatusWire struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Report struct {
		AggregateDigest string `json:"aggregate_digest"`
	} `json:"report"`
}

// run posts the job with ?wait=1 and returns its aggregate digest.
func (j *jobRunner) run(rid string) (string, error) {
	req, err := http.NewRequest(http.MethodPost, j.base+"/v1/runs?wait=1", bytes.NewReader(j.body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", rid)
	resp, err := j.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st jobStatusWire
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("decoding job status: %w", err)
	}
	if resp.StatusCode/100 != 2 || st.State != "done" {
		return "", fmt.Errorf("%w: %d state %q %s", errStatus, resp.StatusCode, st.State, st.Error)
	}
	return st.Report.AggregateDigest, nil
}

// request is one open-loop request's timing.
type request struct {
	due, sent, done time.Time
	err             error
	unsent          bool
}

// openLoop issues n requests due at start+i/rate, spread over conns
// sequential connections (request i on connection i%conns). A request is
// sent when it is due or, if its connection is still busy, as soon as the
// connection frees, and is timed from when it was due, so a stall delays
// and inflates every later request. Requests not sent by start+cutoff are
// marked unsent.
func openLoop(ctx context.Context, start time.Time, rate float64, n, conns int, cutoff time.Duration, do func(conn, i int) error) []request {
	reqs := make([]request, n)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				reqs[i].due = due
				if wait := time.Until(due); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
					}
				}
				if ctx.Err() != nil || time.Since(start) > cutoff {
					reqs[i].unsent = true
					reqs[i].sent = time.Now()
					continue
				}
				reqs[i].sent = time.Now()
				reqs[i].err = do(c, i)
				reqs[i].done = time.Now()
			}
		}(c)
	}
	wg.Wait()
	return reqs
}

// rung converts open-loop timings to a rungResult. Failed and unsent
// requests are misses (+Inf).
func toRung(rate float64, reqs []request) rungResult {
	r := rungResult{Rate: rate}
	for _, q := range reqs {
		r.LateMs = append(r.LateMs, ms(q.sent.Sub(q.due)))
		if q.unsent || q.err != nil {
			r.LatencyMs = append(r.LatencyMs, math.Inf(1))
			continue
		}
		r.LatencyMs = append(r.LatencyMs, ms(q.done.Sub(q.due)))
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// scrape reads the daemon's /metrics and sums each sample name over its
// label sets.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

func runServeMixed(ctx context.Context, p params) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	if _, err := os.Stat(daemonPath); err != nil {
		return nil, fmt.Errorf("%s missing: build it with run.sh: %w", daemonPath, err)
	}
	ref := fleet.NewCache(nil)
	cases, micro, err := decideCases(ctx, ref, p.seed)
	if err != nil {
		return nil, err
	}
	jobSpec := serveJob()
	jobBody, err := json.Marshal(jobSpec)
	if err != nil {
		return nil, err
	}
	jobRuns, err := jobSpec.Resolved()
	if err != nil {
		return nil, err
	}

	// All load comes from this process over at most nproc connections:
	// one runs jobs, the rest carry decides.
	decideConns := runtime.NumCPU() - 1
	if decideConns < 1 {
		decideConns = 1
	}
	newDeciders := func(base string) []*decider {
		ds := make([]*decider, decideConns)
		for i := range ds {
			ds[i] = &decider{client: oneConnClient(10 * time.Second), base: base, cases: cases, verified: make([][]byte, len(cases))}
		}
		return ds
	}

	// Set-up: start the daemon and warm it — one decide per trained
	// configuration, then one job — several times; the last daemon stays.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		t0 := time.Now()
		if d, err = startDaemon(ctx); err != nil {
			return nil, err
		}
		ds := newDeciders(d.base)
		for k := range decideGraphs {
			out.attempted++
			if err := ds[0].do(k, fmt.Sprintf("setup%d-d%d", i, k)); err != nil {
				return nil, fmt.Errorf("warm-up decide: %w", err)
			}
		}
		jr := &jobRunner{client: oneConnClient(120 * time.Second), base: d.base, body: jobBody}
		out.attempted++
		dig, err := jr.run(fmt.Sprintf("setup%d-job", i))
		if err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		out.gate(dig == serveJobGolden, "set-up %d job digest %s, want %s", i, dig, serveJobGolden)
		out.gate(ds[0].mismatch == nil, "%v", ds[0].mismatch)
	}

	metricsClient := &http.Client{Timeout: 10 * time.Second}
	before, err := scrape(metricsClient, d.base)
	if err != nil {
		return nil, err
	}

	// Measured phase: the ladder on the decide connections while one
	// connection runs jobs back to back.
	deciders := newDeciders(d.base)
	jr := &jobRunner{client: oneConnClient(120 * time.Second), base: d.base, body: jobBody}
	var (
		jobWalls      []float64
		jobs, jobErrs int
		stopJobs      = make(chan struct{})
		jobsDone      = make(chan struct{})
	)
	phase := p.tr.start("serve.phase", "", 0)
	t0 := time.Now()
	go func() {
		defer close(jobsDone)
		for k := 0; ; k++ {
			select {
			case <-stopJobs:
				return
			default:
			}
			rid := fmt.Sprintf("job%d", k)
			h := p.tr.start("serve.run_job", rid, phase.id())
			j0 := time.Now()
			dig, err := jr.run(rid)
			wall := time.Since(j0).Seconds()
			h.end()
			jobs++
			if err != nil || dig != serveJobGolden {
				jobErrs++
				continue
			}
			jobWalls = append(jobWalls, wall)
		}
	}()
	rungDur := p.seconds / time.Duration(len(ladder))
	var rungs []rungResult
	var serviceMs []float64
	decideErrs := 0
	for ri, rate := range ladder {
		n := int(rate * rungDur.Seconds())
		rs := p.tr.start("loadgen.rung", fmt.Sprintf("r%.0f", rate), phase.id())
		reqs := openLoop(ctx, time.Now(), rate, n, decideConns, rungDur+decideLimitMs*time.Millisecond, func(c, i int) error {
			return deciders[c].do(i, fmt.Sprintf("r%d-%d", ri, i))
		})
		rs.end()
		for i, q := range reqs {
			if q.unsent {
				continue
			}
			out.attempted++
			if q.err != nil {
				decideErrs++
				continue
			}
			serviceMs = append(serviceMs, ms(q.done.Sub(q.sent)))
			if p.tr != nil {
				p.tr.record("serve.decide", fmt.Sprintf("r%d-%d", ri, i), rs.id(), q.sent, q.done)
			}
		}
		rungs = append(rungs, toRung(rate, reqs))
		fmt.Fprintf(os.Stderr, "e2ebench: serve_mixed: %s\n", rungs[len(rungs)-1].summary(decideLimitMs))
	}
	close(stopJobs)
	<-jobsDone
	elapsed := time.Since(t0)
	phase.end()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, dc := range deciders {
		out.gate(dc.mismatch == nil, "%v", dc.mismatch)
	}
	out.attempted += int64(jobs)
	out.failed += int64(jobErrs + decideErrs)
	out.gate(jobErrs == 0, "%d of %d jobs failed or changed digest", jobErrs, jobs)
	if len(jobWalls) == 0 {
		return nil, fmt.Errorf("no job finished during the measured phase")
	}
	after, err := scrape(metricsClient, d.base)
	if err != nil {
		return nil, err
	}

	if p.tr != nil {
		m := out.metrics
		for _, r := range rungs {
			switch r.Rate {
			case 500, 1000:
				lat := append([]float64(nil), r.LatencyMs...)
				m[fmt.Sprintf("decide_p50_ms.r%.0f", r.Rate)] = finite(percentile(lat, 0.5))
				m[fmt.Sprintf("decide_p99_ms.r%.0f", r.Rate)] = finite(percentile(lat, 0.99))
			}
			if r.Rate == 1000 {
				late := append([]float64(nil), r.LateMs...)
				m["loadgen.late_ms_p99"] = percentile(late, 0.99)
			}
		}
		m["decide_max_rps"] = maxPassingRate(rungs, decideLimitMs)
		delta := func(k string) float64 { return after[k] - before[k] }
		handler := 0.0
		if c := delta("serve_decide_seconds_count"); c > 0 {
			handler = delta("serve_decide_seconds_sum") / c * 1e3
		}
		m["serve.decide_handler_ms_mean"] = handler
		m["serve.decide_outside_ms_mean"] = mean(serviceMs) - handler
		m["serve.decides"] = delta("serve_decide_seconds_count")
		m["serve.decide_errors"] = float64(decideErrs)
		m["serve.throttled"] = delta("serve_tenant_throttled_total")
		m["serve.jobs_rejected"] = delta("serve_jobs_rejected_total")
		m["serve.job_s_mean"] = 0
		if c := delta("serve_job_seconds_count"); c > 0 {
			m["serve.job_s_mean"] = delta("serve_job_seconds_sum") / c
		}
		// The job's runs replayed in process must match the daemon's digest.
		specs, err := jobSpec.Compile(nil)
		if err != nil {
			return nil, err
		}
		rep, err := fleetPass(ctx, out, specs, ref, serveJobGolden)
		if err != nil {
			return nil, err
		}
		if err := layerMetrics(ctx, p, out, jobRuns, rep, serveJobGolden); err != nil {
			return nil, err
		}
		m["core.decide_us_p50"] = median(micro)
		m["peak_rss_mb"] = d.stop()
		d = nil
		return out, nil
	}
	out.metrics["setup_s"] = median(setups)
	out.metrics["fleet_s"] = median(jobWalls)
	out.metrics["sim_periods_per_s"] = float64(periodsOf(jobRuns)*len(jobWalls)) / elapsed.Seconds()
	return out, nil
}

func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return 1e9 // a failed request: far beyond any limit
	}
	return x
}
