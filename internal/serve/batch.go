package serve

import (
	"context"
	"sync"
	"time"

	"solarsched/internal/ann"
	"solarsched/internal/core"
	"solarsched/internal/mat"
	"solarsched/internal/obs"
)

// decideBatcher coalesces concurrent decide requests against the same
// network into one batched forward pass — the serving-layer analogue of the
// paper's global energy migration: one PMU decision cycle amortized across
// many capacitors becomes one matmul amortized across many requests.
//
// Mechanics: the first request for a network opens a batch and arms a
// window timer; later requests for the same network join it. The batch
// flushes when the window elapses or when it reaches max requests,
// whichever is first, and every member gets its row of the one
// core.DecideBatch call — bit-identical to the decision a solo call would
// have produced. Requests canceled mid-window are dropped from the batch
// at flush time.
type decideBatcher struct {
	window time.Duration
	max    int

	mu       sync.Mutex
	pending  map[string]*decideBatch
	draining bool

	// wsPool recycles forward-pass scratch across flushes; flushes for
	// different networks run concurrently, so the arena cannot be shared.
	wsPool sync.Pool

	flushes   *obs.Counter // batches flushed
	reqs      *obs.Counter // requests answered through a batch
	dropped   *obs.Counter // requests canceled before their batch flushed
	batchSize *obs.Histogram
}

// decideBatch is one open window of requests sharing a network.
type decideBatch struct {
	pc    core.PlanConfig
	net   *ann.Network
	timer *time.Timer
	items []*decideItem
}

// decideItem is one waiter. done is buffered so a flush never blocks on a
// waiter that already gave up.
type decideItem struct {
	req  core.DecideRequest
	ctx  context.Context
	done chan decideOutcome
}

type decideOutcome struct {
	d   core.OnlineDecision
	err error
}

func newDecideBatcher(window time.Duration, max int, reg *obs.Registry) *decideBatcher {
	b := &decideBatcher{
		window:    window,
		max:       max,
		pending:   make(map[string]*decideBatch),
		flushes:   reg.Counter("serve_decide_batches_total"),
		reqs:      reg.Counter("serve_decide_batched_requests_total"),
		dropped:   reg.Counter("serve_decide_batch_dropped_total"),
		batchSize: reg.Histogram("serve_decide_batch_size", []float64{1, 2, 4, 8, 16, 32, 64, 128}),
	}
	b.wsPool.New = func() any { return mat.NewWorkspace() }
	return b
}

// submit joins (or opens) the batch for key and blocks until the batch
// flushes or ctx is canceled. req must already be validated against
// (pc, net): validation failures are per-request concerns and must never
// reach a batch, where one bad row would fail every waiter.
func (b *decideBatcher) submit(ctx context.Context, key string, pc core.PlanConfig, net *ann.Network, req core.DecideRequest) (core.OnlineDecision, error) {
	it := &decideItem{req: req, ctx: ctx, done: make(chan decideOutcome, 1)}

	b.mu.Lock()
	if b.draining {
		// The daemon is shutting down: answer solo and immediately rather
		// than opening a window no flusher will close in time. Bit-identical
		// to the batched answer.
		b.mu.Unlock()
		return core.Decide(pc, net, req)
	}
	batch := b.pending[key]
	if batch == nil {
		batch = &decideBatch{pc: pc, net: net}
		b.pending[key] = batch
		batch.timer = time.AfterFunc(b.window, func() { b.flushIfCurrent(key, batch) })
	}
	batch.items = append(batch.items, it)
	full := len(batch.items) >= b.max
	if full {
		// Detach now, under the lock, so a racing timer fire becomes a
		// no-op and the next request opens a fresh batch.
		delete(b.pending, key)
		batch.timer.Stop()
	}
	b.mu.Unlock()

	if full {
		b.flush(batch)
	}

	select {
	case out := <-it.done:
		return out.d, out.err
	case <-ctx.Done():
		return core.OnlineDecision{}, ctx.Err()
	}
}

// drain flushes every open batch immediately and switches the batcher to
// solo mode: a SIGTERM drain must answer in-flight waiters now, not after
// their window timers elapse. Pending timers are stopped so a late fire
// cannot race the drain (flushIfCurrent would no-op anyway — the batches
// are detached under the lock). Idempotent.
func (b *decideBatcher) drain() {
	b.mu.Lock()
	b.draining = true
	batches := make([]*decideBatch, 0, len(b.pending))
	for key, batch := range b.pending {
		batch.timer.Stop()
		delete(b.pending, key)
		batches = append(batches, batch)
	}
	b.mu.Unlock()
	for _, batch := range batches {
		b.flush(batch)
	}
}

// flushIfCurrent is the timer path: flush the batch only if it is still the
// pending one for key (a full-batch flush may have detached it already).
func (b *decideBatcher) flushIfCurrent(key string, batch *decideBatch) {
	b.mu.Lock()
	if b.pending[key] != batch {
		b.mu.Unlock()
		return
	}
	delete(b.pending, key)
	b.mu.Unlock()
	b.flush(batch)
}

// flush answers every still-listening member of a detached batch with its
// row of one DecideBatch call.
func (b *decideBatcher) flush(batch *decideBatch) {
	// Drop members whose request context died while they waited; their
	// handlers have already answered with the cancellation.
	live := batch.items[:0]
	for _, it := range batch.items {
		if it.ctx.Err() != nil {
			b.dropped.Inc()
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}

	reqs := make([]core.DecideRequest, len(live))
	for i, it := range live {
		reqs[i] = it.req
	}
	ws := b.wsPool.Get().(*mat.Workspace)
	ds, err := core.DecideBatchWS(batch.pc, batch.net, reqs, ws)
	ws.Reset()
	b.wsPool.Put(ws)

	b.flushes.Inc()
	b.batchSize.Observe(float64(len(live)))
	// Count before replying: a client that reads the counter right after
	// its answer arrives must already see its own request.
	b.reqs.Add(float64(len(live)))
	for i, it := range live {
		out := decideOutcome{err: err}
		if err == nil {
			out.d = ds[i]
		}
		it.done <- out // buffered: never blocks, even if the waiter left
	}
}
