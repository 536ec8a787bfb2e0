// Package sim is the discrete-time simulator of the dual-channel
// solar-powered nonvolatile sensor node (the paper's Figure 3). It advances
// the node slot by slot: the scheduler proposes a priority-ordered task
// list for each slot, the engine enforces physical feasibility (direct
// channel first, then the active super capacitor down to its cut-off
// voltage, trimming lowest-priority tasks on brownout), performs the energy
// bookkeeping of equations (1)–(3), fires deadline misses (eq. (5)) and
// accumulates the DMR and energy-utilization metrics reported in §6.
package sim

import (
	"context"
	"errors"
	"fmt"

	"solarsched/internal/fault"
	"solarsched/internal/nvp"
	"solarsched/internal/obs"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// DefaultDirectEff is the efficiency of the direct supply channel — the
// high-efficiency path of the dual-channel architecture [11].
const DefaultDirectEff = 0.95

// PeriodView is what a scheduler sees at the beginning of each period: the
// clock, the capacitor bank voltages, the harvest of the period that just
// ended and the accumulated DMR — exactly the online inputs of the paper's
// ANN (§5.1).
type PeriodView struct {
	Day, Period      int
	Base             solar.TimeBase
	Graph            *task.Graph
	Bank             *supercap.Bank
	LastPeriodEnergy float64 // J harvested during the previous period
	AccumulatedDMR   float64 // paper's DMR^acc over all completed periods
}

// PeriodPlan is a scheduler's period-level decision: which capacitor to
// activate (the C_{h,i} selection) and which tasks it intends to execute
// this period (the te_{i,j}(n) set). A nil Allowed permits every task.
type PeriodPlan struct {
	// SwitchTo activates the given capacitor index; negative keeps the
	// current one.
	SwitchTo int
	// Migrate moves the residual usable energy of the old capacitor into
	// the new one through both regulators when switching.
	Migrate bool
	// Allowed masks the tasks the scheduler will execute this period.
	Allowed []bool
}

// KeepCap is the PeriodPlan that changes nothing.
var KeepCap = PeriodPlan{SwitchTo: -1}

// SlotView is what a scheduler sees at each slot: the clock, the measured
// solar power of the current slot, the active capacitor and the execution
// state of the tasks.
type SlotView struct {
	Day, Period, Slot int
	Base              solar.TimeBase
	SolarPower        float64 // W, measured for the current slot
	Cap               *supercap.Capacitor
	Bank              *supercap.Bank // one capacitor inside planner-local simulations
	Tasks             *nvp.Set
	DirectEff         float64
}

// Elapsed returns the seconds elapsed in the current period at the
// beginning of the slot.
func (v *SlotView) Elapsed() float64 { return float64(v.Slot) * v.Base.SlotSeconds }

// Scheduler is the contract every scheduling algorithm implements.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// BeginPeriod is called once at every period boundary.
	BeginPeriod(v *PeriodView) PeriodPlan
	// Slot returns the tasks to execute in this slot, highest priority
	// first. The engine filters the list for readiness and one-task-per-NVP
	// and trims it from the tail if the energy cannot carry the load.
	//
	// The returned slice may be the scheduler's own scratch: it is valid
	// only until the next call, and callers that keep it copy it. The
	// engine never writes to it. A scheduler value is not safe for
	// concurrent use.
	Slot(v *SlotView) []int
}

// SlotPolicy is a slot-level scheduling function, used standalone by the
// planners in internal/core to simulate candidate periods. Like
// Scheduler.Slot, the returned slice may be the policy's own scratch, valid
// only until the next call, and one policy value is not safe for
// concurrent use.
type SlotPolicy func(v *SlotView) []int

// SpeedScheduler is an optional Scheduler extension for DVFS-capable nodes
// (the paper's related work [5–8]): after the engine filters a slot's task
// list, it asks the scheduler for a per-task speed f ∈ (0, 1]. A task at
// speed f advances f·Δt of work while drawing P_n·f³ (P ≈ C·V²·f with
// V ∝ f, so energy per unit work scales as f²) — voltage-frequency scaling
// trades latency for energy. Schedulers that do not implement this run
// everything at full speed.
type SpeedScheduler interface {
	Scheduler
	// Speeds returns one speed per entry of selected (the engine's
	// post-filter task list for this slot). Values are clamped to
	// [MinDVFSSpeed, 1].
	Speeds(v *SlotView, selected []int) []float64
}

// MinDVFSSpeed is the lowest supported frequency ratio.
const MinDVFSSpeed = 0.25

// Config describes one simulation run.
type Config struct {
	Trace        *solar.Trace
	Graph        *task.Graph
	Capacitances []float64       // the distributed bank (C_h)
	Params       supercap.Params // zero value → supercap.DefaultParams()
	DirectEff    float64         // zero → DefaultDirectEff

	// Observer receives the engine's metrics and run/day/period spans.
	// Nil disables instrumentation entirely; the hot path then pays one
	// branch per record site (see BenchmarkEngineBare).
	Observer *obs.Registry

	// Faults configures the deterministic fault-injection layer: power
	// interruptions, sensor corruption of the scheduler's observations,
	// capacitor aging, PMU switch drops and DBN corruption. The zero value
	// disables injection entirely — the engine then follows the exact
	// pre-fault code paths, bit for bit. Each Run derives its own injector
	// from Faults.Seed, so concurrent Runs stay independent and two runs
	// with equal configs produce identical fault patterns.
	Faults fault.Config
}

// Observable is an optional Scheduler extension: the engine hands the
// run's observer to any scheduler implementing it before the first
// period, so schedulers can publish their own instruments (admission
// counts, forecast error, guard overrides) into the same pipeline.
type Observable interface {
	SetObserver(*obs.Registry)
}

// FaultAware is an optional Scheduler extension: the engine hands the
// run's fault injector (nil when faults are disabled) to any scheduler
// implementing it before the first period. Schedulers that embed a fault
// surface of their own — the proposed scheduler's DBN inference — draw
// their corruption from the same seeded streams as the engine, keeping the
// whole run reproducible. Implementations must tolerate a nil injector.
type FaultAware interface {
	SetFaultInjector(*fault.Injector)
}

// Engine runs schedulers over a configuration.
type Engine struct {
	cfg Config
	m   *engineMetrics
}

// New validates the configuration and returns an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Trace == nil {
		return nil, fmt.Errorf("sim: nil trace")
	}
	if err := cfg.Trace.Base.Validate(); err != nil {
		return nil, err
	}
	if cfg.Graph == nil {
		return nil, fmt.Errorf("sim: nil graph")
	}
	if err := cfg.Graph.Validate(cfg.Trace.Base.PeriodSeconds()); err != nil {
		return nil, err
	}
	if len(cfg.Capacitances) == 0 {
		return nil, fmt.Errorf("sim: empty capacitor bank")
	}
	for _, c := range cfg.Capacitances {
		if c <= 0 {
			return nil, fmt.Errorf("sim: non-positive capacitance %g", c)
		}
	}
	if cfg.Params == (supercap.Params{}) {
		cfg.Params = supercap.DefaultParams()
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.DirectEff == 0 {
		cfg.DirectEff = DefaultDirectEff
	}
	if cfg.DirectEff < 0 || cfg.DirectEff > 1 {
		return nil, fmt.Errorf("sim: direct efficiency %g outside [0,1]", cfg.DirectEff)
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg, m: newEngineMetrics(cfg.Observer)}, nil
}

// Config returns the engine's (validated, defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// ErrCanceled is returned (wrapped) by Run when the run's context is
// canceled at a period boundary. The partial Result up to the boundary is
// returned alongside it, and — when a checkpoint sink is configured — a
// final checkpoint has already been flushed, so the run can be resumed with
// bit-identical results. Test with errors.Is(err, sim.ErrCanceled).
var ErrCanceled = errors.New("sim: run canceled")

// ErrConfigMismatch is wrapped into every error that rejects a checkpoint
// against the engine or scheduler that tries to resume it: wrong scheduler,
// wrong config digest, wrong schema version, inconsistent cursor. Callers
// use errors.Is(err, sim.ErrConfigMismatch) instead of string-matching.
var ErrConfigMismatch = errors.New("sim: checkpoint does not match run configuration")

// RunOptions controls one simulation run beyond the scheduler itself.
// The zero value reproduces a plain Run exactly. It is constructed through
// the RunOption functional options of Run — there is no other entry point.
type RunOptions struct {
	// Recorder receives a record after every simulated slot (nil is off).
	Recorder Recorder

	// Context cancels the run at the next period boundary; the run then
	// flushes a final checkpoint (if a sink is set) and returns
	// ErrCanceled. Nil means never canceled.
	Context context.Context

	// Resume restarts the run from a previously captured RunState instead
	// of from scratch. The state must validate against this engine and
	// scheduler (same config digest, same scheduler name).
	Resume *RunState

	// Sink receives checkpoints at period boundaries. Nil disables
	// checkpointing.
	Sink func(*RunState) error

	// Gate, when non-nil, is consulted before a periodic checkpoint is
	// captured; returning false skips both the capture and the Sink call.
	// Capturing a RunState serializes the whole run state, so wall-clock
	// throttles (ckpt.Throttle) belong here, where a skipped checkpoint
	// costs one function call. The final flush on context cancellation
	// bypasses the gate — a graceful stop never loses its stopping point.
	Gate func() bool

	// CheckpointEvery is the number of periods between checkpoints when a
	// Sink is set; <= 0 means every period.
	CheckpointEvery int
}

// RunOption configures one call to Run.
type RunOption func(*RunOptions)

// WithRecorder attaches a per-slot state recorder (nil is allowed and is a
// no-op), used for debugging and trace visualization.
func WithRecorder(rec Recorder) RunOption {
	return func(o *RunOptions) { o.Recorder = rec }
}

// WithResume restarts the run from a previously captured RunState instead
// of from scratch. The state must validate against the engine and scheduler
// (same config digest, same scheduler name); a mismatch fails with an error
// wrapping ErrConfigMismatch.
func WithResume(st *RunState) RunOption {
	return func(o *RunOptions) { o.Resume = st }
}

// WithSink delivers checkpoints to sink at period boundaries.
func WithSink(sink func(*RunState) error) RunOption {
	return func(o *RunOptions) { o.Sink = sink }
}

// WithGate consults gate before each periodic checkpoint capture; returning
// false skips both the capture and the sink call (see RunOptions.Gate).
func WithGate(gate func() bool) RunOption {
	return func(o *RunOptions) { o.Gate = gate }
}

// WithCheckpointEvery sets the number of periods between checkpoints when a
// sink is set; n <= 0 means every period.
func WithCheckpointEvery(n int) RunOption {
	return func(o *RunOptions) { o.CheckpointEvery = n }
}

// Run simulates the whole trace under the given scheduler. The context
// cancels the run at the next period boundary (the partial result and an
// error wrapping ErrCanceled are returned); a nil context means never
// canceled. Recording, checkpointing and resume are attached through
// functional options:
//
//	res, err := eng.Run(ctx, s,
//		sim.WithRecorder(rec),
//		sim.WithSink(store.Sink()),
//		sim.WithCheckpointEvery(8))
//
// The period loop is flat — day = k / PeriodsPerDay, period-of-day =
// k % PeriodsPerDay — so a resumed run re-enters at an arbitrary flat
// period index. Checkpoints are captured at period boundaries, before the
// day-boundary aging of the next day (the resumed run reapplies it), which
// is exactly the state a surviving run would carry across that boundary.
func (e *Engine) Run(ctx context.Context, s Scheduler, opts ...RunOption) (*Result, error) {
	ro := RunOptions{Context: ctx}
	for _, opt := range opts {
		if opt != nil {
			opt(&ro)
		}
	}
	return e.run(s, ro)
}

func (e *Engine) run(s Scheduler, opts RunOptions) (*Result, error) {
	tb := e.cfg.Trace.Base
	rec := opts.Recorder
	bank, err := supercap.NewBank(e.cfg.Capacitances, e.cfg.Params)
	if err != nil {
		return nil, err
	}
	ts, err := nvp.NewSet(e.cfg.Graph)
	if err != nil {
		return nil, err
	}
	res := newResult(s.Name(), tb, e.cfg.Graph.N())
	dt := tb.SlotSeconds
	ss, _ := s.(SpeedScheduler)
	kern := &slotKernel{bank: bank, ts: ts, dt: dt, directEff: e.cfg.DirectEff, speeds: ss}

	// The fault layer of this run. A nil injector (faults disabled) makes
	// every call below a no-op returning its input, so the clean path is
	// bit-identical to the pre-fault engine.
	inj := fault.NewInjector(e.cfg.Faults)
	inj.SetObserver(e.cfg.Observer)

	if o, ok := s.(Observable); ok {
		o.SetObserver(e.cfg.Observer)
	}
	if fa, ok := s.(FaultAware); ok {
		fa.SetFaultInjector(inj)
	}

	lastEnergy := 0.0
	startPeriod := 0
	if opts.Resume != nil {
		res, lastEnergy, err = e.restoreState(opts.Resume, s, bank, ts, inj)
		if err != nil {
			return nil, err
		}
		startPeriod = opts.Resume.NextPeriod
	}

	runSpan := e.cfg.Observer.StartSpan("sim/run")
	defer runSpan.End()

	// The instrumented hot loop only counts brown-out trims and feeds the
	// slot-load histogram batch; everything else is published per period
	// as deltas of res (see flushPeriod). All of this state is run-local,
	// so concurrent Runs on one engine never share mutable state. On
	// resume the marks seed from the restored totals — the restored obs
	// snapshot already accounts for everything before the boundary.
	marks := energyMarks{
		harvested: res.Harvested,
		delivered: res.Delivered,
		drawn:     res.DrawnOut,
		stored:    res.StoredIn,
		storeLoss: res.StoreLoss,
		leaked:    res.Leaked,
	}
	trims := 0
	loadBatch := e.m.slotLoadBatch()

	every := opts.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	checkpoint := func(next int) error {
		if opts.Sink == nil {
			return nil
		}
		st, err := e.captureState(s, next, bank, ts, res, lastEnergy, inj)
		if err != nil {
			return err
		}
		return opts.Sink(st)
	}

	// One view serves every slot of the run; each powered slot resets all
	// of its fields, the sensor-fault shim's included.
	sv := &SlotView{}
	var daySpan *obs.Span
	for k := startPeriod; k < tb.TotalPeriods(); k++ {
		day, period := k/tb.PeriodsPerDay, k%tb.PeriodsPerDay
		if opts.Context != nil && opts.Context.Err() != nil {
			// Canceled: flush a final checkpoint at this boundary — the
			// same state a periodic checkpoint at the end of period k-1
			// would have captured — and hand back the partial result.
			daySpan.End()
			if err := checkpoint(k); err != nil {
				return res, err
			}
			return res, fmt.Errorf("%w at period %d/%d: %v",
				ErrCanceled, k, tb.TotalPeriods(), opts.Context.Err())
		}
		if daySpan == nil {
			daySpan = runSpan.Child("day")
		}
		if period == 0 && day > 0 {
			// One day of component wear on the real bank (no-op without
			// aging faults). Schedulers never learn the drifted constants
			// directly — they only see the voltages their sensors report.
			inj.AgeDay(bank)
		}
		periodSpan := daySpan.Child("period")
		pv := &PeriodView{
			Day: day, Period: period, Base: tb,
			Graph: e.cfg.Graph, Bank: inj.ObserveBank(bank),
			LastPeriodEnergy: lastEnergy,
			AccumulatedDMR:   res.DMR(),
		}
		plan := s.BeginPeriod(pv)
		if plan.SwitchTo >= 0 && plan.SwitchTo != bank.ActiveIndex() {
			if plan.SwitchTo >= bank.Size() {
				return nil, fmt.Errorf("sim: scheduler %s switched to capacitor %d of %d",
					s.Name(), plan.SwitchTo, bank.Size())
			}
			if inj.DropSwitch() {
				// PMU fault: the switch request is silently ignored;
				// the scheduler believes it switched.
				res.DroppedSwitches++
			} else {
				if plan.Migrate {
					before := res.MigrationLoss
					res.MigrationLoss += bank.MigrateTo(plan.SwitchTo)
					if e.m != nil {
						e.m.migLoss.Add(res.MigrationLoss - before)
					}
				} else {
					bank.SwitchTo(plan.SwitchTo)
				}
				res.CapSwitches++
				if e.m != nil {
					e.m.capSwitches.Inc()
				}
			}
		}
		ts.ResetPeriod()

		kern.allowed = plan.Allowed

		for slot := 0; slot < tb.SlotsPerPeriod; slot++ {
			solarW := e.cfg.Trace.At(day, period, slot)
			var st SlotStats
			if inj.DeadSlot() {
				// Power interruption: no channel supplies the load, the
				// panel harvests nothing and the node (scheduler
				// included) does not run. The NVPs suspend at zero cost
				// and retain state — only wall-clock physics continue:
				// capacitors leak and deadlines keep approaching.
				res.DeadSlots++
				st.Leaked = kern.endSlot(slot)
			} else {
				*sv = SlotView{
					Day: day, Period: period, Slot: slot, Base: tb,
					SolarPower: solarW, Cap: bank.Active(), Bank: bank,
					Tasks: ts, DirectEff: e.cfg.DirectEff,
				}
				if inj.SensorFaults() {
					// Observation shim: the scheduler sees what the node's
					// sensors report, never the ground truth the physics
					// below run on.
					obsBank := inj.ObserveBank(bank)
					sv.SolarPower = inj.ObserveSolar(solarW)
					sv.Bank = obsBank
					sv.Cap = obsBank.Active()
				}
				st = kern.stepSlot(sv, s.Slot(sv), solarW, slot)
				res.Harvested += solarW * dt
				res.Delivered += st.LoadPower * dt
				res.StoredIn += st.Stored
				res.StoreLoss += st.SurplusOffered - st.Stored
				res.DrawnOut += st.DrawnOut
			}
			res.Leaked += st.Leaked
			if e.m != nil {
				trims += st.Trimmed
				loadBatch.Observe(st.LoadPower)
			}
			if rec != nil {
				rec.Record(SlotRecord{
					Day: day, Period: period, Slot: slot,
					SolarW: solarW, LoadW: st.LoadPower,
					ActiveCap: bank.ActiveIndex(), ActiveV: bank.Active().V,
					UsableJ:      bank.Active().UsableEnergy(),
					Ran:          append([]int(nil), st.Ran...),
					PeriodMisses: ts.Misses(),
				})
			}
		}
		res.recordPeriod(ts.Misses())
		lastEnergy = e.cfg.Trace.PeriodEnergy(day, period)
		if e.m != nil {
			e.m.flushPeriod(res, &marks, tb.SlotsPerPeriod, trims, ts.Misses(), e.cfg.Graph.N())
			trims = 0
			loadBatch.Flush()
		}
		// The span's duration doubles as the per-period engine timing
		// histogram — the distribution the hot-path speed campaign is
		// judged on, not just the run total.
		periodDur := periodSpan.End()
		if e.m != nil {
			e.m.periodSecs.Observe(periodDur)
		}
		if period == tb.PeriodsPerDay-1 {
			daySpan.End()
			daySpan = nil
			if e.m != nil {
				e.m.days.Inc()
			}
		}
		if opts.Sink != nil && (k+1)%every == 0 && k+1 < tb.TotalPeriods() &&
			(opts.Gate == nil || opts.Gate()) {
			if err := checkpoint(k + 1); err != nil {
				return res, err
			}
		}
	}
	res.FinalStored = bank.TotalUsable()
	return res, nil
}
