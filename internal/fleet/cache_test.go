package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"solarsched/internal/core"
	"solarsched/internal/obs"
	"solarsched/internal/solar"
	"solarsched/internal/task"
)

// TestCacheSingleFlight floods one key from many goroutines: exactly one
// build must run, everyone must observe its value, and the joiners must
// count as hits (the build was shared, not repeated).
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(nil)
	var builds atomic.Int64
	const callers = 32

	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", func() (any, error) {
				builds.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if v != 42 {
				t.Errorf("Do = %v, want 42", v)
			}
		}()
	}
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	hits, misses := c.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("stats = %d hits / %d misses, want %d / 1", hits, misses, callers-1)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestCacheBuildTimeByKind: every build is timed under its artifact kind,
// so a cold fleet's build time splits by offline stage; hits time nothing.
func TestCacheBuildTimeByKind(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCache(reg)
	for _, key := range []string{"sizing:a", "sizing:b", "samples:a", "sizing:a"} {
		if _, err := c.Do(context.Background(), key, func() (any, error) { return key, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for kind, want := range map[string]uint64{"sizing": 2, "samples": 1, "dbn": 0} {
		if n := reg.Timer("fleet_cache_build_seconds", obs.L("kind", kind)).Count(); n != want {
			t.Errorf("kind %s: %d builds timed, want %d", kind, n, want)
		}
	}
	if n := reg.Timer("fleet_cache_build_seconds").Count(); n != 0 {
		t.Errorf("%d builds timed without a kind", n)
	}
}

// TestCacheErrorCached: a deterministic failure is cached like a success —
// the build must not rerun.
func TestCacheErrorCached(t *testing.T) {
	c := NewCache(nil)
	var builds atomic.Int64
	sentinel := errors.New("deterministic failure")
	for i := 0; i < 3; i++ {
		_, err := c.Do(context.Background(), "k", func() (any, error) {
			builds.Add(1)
			return nil, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("call %d: err = %v, want %v", i, err, sentinel)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1 (errors must be cached)", n)
	}
}

// TestCacheCancellationEvicted: a build that failed only because a context
// died must not poison the key for later callers.
func TestCacheCancellationEvicted(t *testing.T) {
	c := NewCache(nil)
	var builds atomic.Int64
	_, err := c.Do(context.Background(), "k", func() (any, error) {
		builds.Add(1)
		return nil, fmt.Errorf("wait: %w", context.Canceled)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Fatalf("canceled entry not evicted: Len = %d", c.Len())
	}
	v, err := c.Do(context.Background(), "k", func() (any, error) {
		builds.Add(1)
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("retry after cancellation: v=%v err=%v", v, err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("build ran %d times, want 2 (cancellation must allow retry)", n)
	}
}

// TestCachePanicRecovered: a panicking build becomes an error; concurrent
// waiters unblock with the same error instead of hanging forever.
func TestCachePanicRecovered(t *testing.T) {
	c := NewCache(nil)
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do(context.Background(), "k", func() (any, error) {
				<-release
				panic("boom")
			})
		}(i)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "build panicked") {
			t.Fatalf("caller %d: err = %v, want recovered panic", i, err)
		}
	}
}

// TestCacheWaiterContext: a waiter whose context dies while a build is in
// flight gets its context error; the build's eventual value stays usable.
func TestCacheWaiterContext(t *testing.T) {
	c := NewCache(nil)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-release
			return 7, nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}

	close(release)
	v, err := c.Do(context.Background(), "k", nil)
	if err != nil || v != 7 {
		t.Fatalf("after build: v=%v err=%v, want 7", v, err)
	}
}

// TestNetworkTrainsOnce: the expensive DBN artifact is requested by many
// goroutines at once and must train exactly once. The miss count proves
// it: one miss for the network, one for the teacher samples its build
// pulls in, and every other request joins as a hit.
func TestNetworkTrainsOnce(t *testing.T) {
	tr, err := solar.Generate(solar.GenConfig{Base: solar.DefaultTimeBase(2), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	g := task.ECG()
	pc := core.DefaultPlanConfig(g, tr.Base, []float64{2, 10, 50})
	topt := core.DefaultTrainOptions()
	topt.PretrainEpochs = 1
	topt.Fine.Epochs = 2

	c := NewCache(nil)
	const callers = 8
	nets := make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net, err := c.Network(context.Background(), pc, tr, topt)
			if err != nil {
				t.Errorf("Network: %v", err)
				return
			}
			nets[i] = net
		}(i)
	}
	wg.Wait()

	hits, misses := c.Stats()
	if misses != 2 { // network + samples
		t.Fatalf("misses = %d, want 2 (network must train once)", misses)
	}
	if hits != callers-1 {
		t.Fatalf("hits = %d, want %d", hits, callers-1)
	}
	for i := 1; i < callers; i++ {
		if nets[i] != nets[0] {
			t.Fatalf("caller %d got a different network pointer — artifact not shared", i)
		}
	}
}

// TestObserverIgnoredByKeys: attaching an observer to a PlanConfig must
// not change any artifact key — instrumentation can never change what
// gets computed.
func TestObserverIgnoredByKeys(t *testing.T) {
	g := task.WAM()
	tb := solar.DefaultTimeBase(4)
	pc := core.DefaultPlanConfig(g, tb, []float64{5, 5})
	pc.Observer = nil
	k1 := artifactKey("network", planConfigParts(pc))
	pc.Observer = obs.NewRegistry()
	k2 := artifactKey("network", planConfigParts(pc))
	if k1 != k2 {
		t.Fatalf("observer changed artifact key:\n%s\n%s", k1, k2)
	}
}
