package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"solarsched/internal/atomicio"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
	"solarsched/internal/sim"
	"solarsched/internal/store"
)

// testFileSpec builds a cheap n-run fleet: baseline schedulers on
// 1-day traces with a 1-day training history, so the whole batch runs
// in well under a second per worker. IDs contain '/' on purpose — the
// protocol must not assume filesystem-safe run IDs.
func testFileSpec(n int) *fleet.FileSpec {
	fs := &fleet.FileSpec{Defaults: fleet.RunSpec{
		Graph:     "wam",
		Scheduler: "asap",
		Trace:     fleet.TraceSpec{Kind: "gen", Days: 1},
		Train:     &fleet.TrainSpec{Days: 1, Seed: 777, DayOfYear: 80, FineEpochs: 1},
	}}
	scheds := []string{"asap", "intra"}
	for i := 0; i < n; i++ {
		fs.Runs = append(fs.Runs, fleet.RunSpec{
			ID:        fmt.Sprintf("dist/%s/seed%d", scheds[i%len(scheds)], i+1),
			Scheduler: scheds[i%len(scheds)],
			Trace:     fleet.TraceSpec{Seed: uint64(i + 1)},
		})
	}
	return fs
}

// sequentialDigest runs the spec the reference way: one process, one
// worker, cold private cache.
func sequentialDigest(t *testing.T, fs *fleet.FileSpec) string {
	t.Helper()
	specs, err := fs.Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(context.Background(), specs, fleet.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rep.AggregateDigest()
}

// startWorkers launches n in-process workers that are respawned when
// the fault plan kills them — the supervisor a real deployment runs as
// a process monitor. Returned stop cancels and joins them.
func startWorkers(t *testing.T, dir string, n int, plan *FaultPlan, heartbeat time.Duration) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				w := NewWorker(WorkerOptions{
					Dir:       dir,
					Heartbeat: heartbeat,
					Poll:      10 * time.Millisecond,
					Fault:     plan,
				})
				err := w.Run(ctx)
				if errors.Is(err, ErrKilled) {
					continue // the supervisor's job: respawn after SIGKILL
				}
				return
			}
		}(i)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// TestDistMatchesLocal is the tentpole's core guarantee in its benign
// form: two workers over a shared directory produce the same aggregate
// digest as a sequential local run.
func TestDistMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed fleet in -short mode")
	}
	t.Parallel()
	fs := testFileSpec(6)
	want := sequentialDigest(t, fs)

	dir := t.TempDir()
	stop := startWorkers(t, dir, 2, nil, 50*time.Millisecond)
	defer stop()

	reg := obs.NewRegistry()
	rep, err := Coordinate(context.Background(), fs, Options{
		Dir:                dir,
		Registry:           reg,
		LeaseTTL:           2 * time.Second,
		Poll:               20 * time.Millisecond,
		LocalFallbackAfter: -1, // workers must do all the work
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.AggregateDigest(); got != want {
		t.Fatalf("distributed digest %s != sequential %s", got, want)
	}
	for _, rr := range rep.Results {
		if rr.Err != nil {
			t.Fatalf("run %s failed: %v", rr.ID, rr.Err)
		}
	}
	if v := reg.Counter("dist_local_runs_total").Value(); v != 0 {
		t.Fatalf("coordinator ran %v items locally with live workers", v)
	}
}

// TestDistLocalFallback: zero workers ever appear; the coordinator must
// degrade to local execution and still match the sequential digest.
func TestDistLocalFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed fleet in -short mode")
	}
	t.Parallel()
	fs := testFileSpec(3)
	want := sequentialDigest(t, fs)

	reg := obs.NewRegistry()
	rep, err := Coordinate(context.Background(), fs, Options{
		Dir:                t.TempDir(),
		Registry:           reg,
		LeaseTTL:           time.Second,
		Poll:               20 * time.Millisecond,
		LocalFallbackAfter: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.AggregateDigest(); got != want {
		t.Fatalf("fallback digest %s != sequential %s", got, want)
	}
	if v := reg.Counter("dist_local_runs_total").Value(); v == 0 {
		t.Fatal("local fallback never fired with zero workers")
	}
}

// TestDistErrorBudgetExhaustion: a run whose trace file does not exist
// fails transiently (os.PathError) on every attempt; the coordinator
// must spend the retry budget and then commit the failure — and the
// aggregate digest (which folds failures in as "!error") must still
// match the sequential run.
func TestDistErrorBudgetExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed fleet in -short mode")
	}
	t.Parallel()
	fs := testFileSpec(2)
	fs.Runs = append(fs.Runs, fleet.RunSpec{
		ID:    "dist/broken",
		Trace: fleet.TraceSpec{Kind: "csv", Path: filepath.Join(t.TempDir(), "no-such-trace.csv")},
	})
	want := sequentialDigest(t, fs)

	dir := t.TempDir()
	stop := startWorkers(t, dir, 1, nil, 50*time.Millisecond)
	defer stop()

	rep, err := Coordinate(context.Background(), fs, Options{
		Dir:                dir,
		LeaseTTL:           2 * time.Second,
		Poll:               20 * time.Millisecond,
		Retry:              fleet.RetryPolicy{MaxAttempts: 2},
		LocalFallbackAfter: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.AggregateDigest(); got != want {
		t.Fatalf("digest with failures %s != sequential %s", got, want)
	}
	var broken *fleet.RunResult
	for i := range rep.Results {
		if rep.Results[i].ID == "dist/broken" {
			broken = &rep.Results[i]
		}
	}
	if broken == nil || broken.Err == nil {
		t.Fatal("broken run did not fail")
	}
	if broken.Attempts != 2 {
		t.Fatalf("broken run got %d attempts, want the full budget of 2", broken.Attempts)
	}
}

// TestDistCancellation: canceling the coordinator mid-batch returns a
// positionally complete partial report and ends the batch for workers.
func TestDistCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed fleet in -short mode")
	}
	t.Parallel()
	fs := testFileSpec(4)
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the first scan: nothing can complete
	rep, err := Coordinate(ctx, fs, Options{
		Dir:                dir,
		Poll:               20 * time.Millisecond,
		LocalFallbackAfter: -1,
	})
	if !errors.Is(err, sim.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if len(rep.Results) != 4 {
		t.Fatalf("partial report has %d results, want 4", len(rep.Results))
	}
	for _, rr := range rep.Results {
		if rr.Err == nil {
			t.Fatalf("run %s reported success under immediate cancel", rr.ID)
		}
	}
	if !batchDone(store.OS, dir) {
		t.Fatal("canceled batch did not write the done marker (workers would poll forever)")
	}
}

// TestDistProtocolBasics covers the building blocks: name hashing,
// claim exclusivity, first-writer-wins commit, sealed-message torn-read
// rejection.
func TestDistProtocolBasics(t *testing.T) {
	t.Parallel()
	if a, b := itemName("x/y z"), itemName("x/y z"); a != b || len(a) != 20 {
		t.Fatalf("itemName not stable 20-hex: %q %q", a, b)
	}
	if itemName("a") == itemName("b") {
		t.Fatal("itemName collision on distinct IDs")
	}
	if got := baseName("abc123.a2.json"); got != "abc123" {
		t.Fatalf("baseName = %q", got)
	}

	dir := t.TempDir()
	fsys := store.OS
	for _, sub := range []string{queueDir, claimedDir, resultsDir} {
		if err := fsys.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}

	// Claim exclusivity: two goroutines racing to rename one file.
	item := Item{ID: "r1", Attempt: 1}
	src := filepath.Join(dir, queueDir, itemName("r1")+".json")
	if err := writeSealed(fsys, src, labelItem, item); err != nil {
		t.Fatal(err)
	}
	wins := make(chan bool, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			dst := filepath.Join(dir, claimedDir, fmt.Sprintf("claim%d.json", n))
			wins <- fsys.Rename(src, dst) == nil
		}(i)
	}
	wg.Wait()
	close(wins)
	won := 0
	for w := range wins {
		if w {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("claim race: %d winners, want exactly 1", won)
	}

	// First-writer-wins commit: the second publish must not replace the
	// first.
	first := Result{ID: "r2", Digest: "aaa", Worker: "w1"}
	second := Result{ID: "r2", Digest: "aaa", Worker: "w2"}
	if err := publishResult(fsys, dir, first); err != nil {
		t.Fatal(err)
	}
	if err := publishResult(fsys, dir, second); err != nil {
		t.Fatal(err)
	}
	var got Result
	if err := readSealed(fsys, filepath.Join(dir, resultsDir, itemName("r2")+".json"), labelResult, &got); err != nil {
		t.Fatal(err)
	}
	if got.Worker != "w1" {
		t.Fatalf("second writer replaced the first commit: worker %q", got.Worker)
	}

	// In-flight atomic-write temporaries live in the destination
	// directory as ".<name>.tmp-*": a worker must never claim one out
	// from under the publisher's rename (regression: doing so made the
	// publish fail with ENOENT and executed a half-published item).
	tmp := filepath.Join(dir, queueDir, ".deadbeef.json.tmp-123")
	if err := os.WriteFile(tmp, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := NewWorker(WorkerOptions{Dir: dir})
	if _, it, ok := w.claimOne(); ok {
		t.Fatalf("claimOne stole an in-flight temp file: %+v", it)
	}
	if _, err := fsys.Stat(tmp); err != nil {
		t.Fatalf("temp file disturbed by claim scan: %v", err)
	}

	// Torn message rejection: truncating a sealed file must fail Unseal.
	if _, err := fsys.ReadFile(src); err == nil {
		t.Fatal("claimed source still exists after rename race")
	}
	leased := filepath.Join(dir, claimedDir, "claim0.json")
	if _, err := fsys.Stat(leased); err != nil {
		leased = filepath.Join(dir, claimedDir, "claim1.json")
	}
	raw, err := fsys.ReadFile(leased)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(leased, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var torn Item
	if err := readSealed(fsys, leased, labelItem, &torn); !errors.Is(err, atomicio.ErrCorrupt) {
		t.Fatalf("torn lease read: err = %v, want atomicio.ErrCorrupt", err)
	}
}
