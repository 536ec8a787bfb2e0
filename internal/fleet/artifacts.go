package fleet

import (
	"context"
	"fmt"

	"solarsched/internal/ann"
	"solarsched/internal/core"
	"solarsched/internal/mat"
	"solarsched/internal/sizing"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// The typed artifact accessors below map one-to-one onto the paper's
// offline stages (see DESIGN.md §9):
//
//	Trace / BuiltinTrace  — the weather input everything downstream keys on
//	Patterns              — per-day energy-migration patterns ΔE, eq. (2)
//	Sizing                — the §4.1 sized capacitor bank
//	Samples               — DP teacher solutions over the training trace (§4.2)
//	Network               — the trained DBN weights of §5.1
//	Plan                  — the whole-trace DP plan and its minimum-energy
//	                        LUT entries, eq. (12)/(13) — the "Optimal" bound
//
// Values returned from the cache are shared across goroutines and must be
// treated as immutable. *ann.Network is safe to share because Forward is
// read-only; *core.LUT is not, which is why Plan returns serialized
// LUTEntry values for each run to restore into a private table.

// Trace returns the generated solar trace of cfg.
func (c *Cache) Trace(ctx context.Context, cfg solar.GenConfig) (*solar.Trace, error) {
	v, err := c.Do(ctx, artifactKey("trace", cfg), func() (any, error) {
		return solar.Generate(cfg)
	})
	if err != nil {
		return nil, err
	}
	return v.(*solar.Trace), nil
}

// BuiltinTrace returns one of the repository's deterministic built-in
// traces: "representative" (the four representative days of Fig. 8) or
// "twomonth" (the seasonal trace of Fig. 9).
func (c *Cache) BuiltinTrace(ctx context.Context, kind string, tb solar.TimeBase) (*solar.Trace, error) {
	v, err := c.Do(ctx, artifactKey("trace-builtin", kind, tb), func() (any, error) {
		switch kind {
		case "representative":
			return solar.RepresentativeDays(tb), nil
		case "twomonth":
			return solar.TwoMonthTrace(tb), nil
		default:
			return nil, fmt.Errorf("fleet: unknown builtin trace %q", kind)
		}
	})
	if err != nil {
		return nil, err
	}
	return v.(*solar.Trace), nil
}

// Patterns returns every day's migration pattern of (tr, g, directEff).
func (c *Cache) Patterns(ctx context.Context, tr *solar.Trace, g *task.Graph, directEff float64) ([]sizing.DayPattern, error) {
	key := artifactKey("patterns", TraceDigest(tr), GraphDigest(g), directEff)
	v, err := c.Do(ctx, key, func() (any, error) {
		return sizing.Patterns(tr, g, directEff), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]sizing.DayPattern), nil
}

// Sizing returns the §4.1 sized bank of h capacitors for the training
// trace, sharing the day patterns with any other bank size of the same
// (trace, graph, directEff).
func (c *Cache) Sizing(ctx context.Context, tr *solar.Trace, g *task.Graph, h int, p supercap.Params, directEff float64) ([]float64, error) {
	key := artifactKey("sizing", TraceDigest(tr), GraphDigest(g), h, p, directEff)
	v, err := c.Do(ctx, key, func() (any, error) {
		pats, err := c.Patterns(ctx, tr, g, directEff)
		if err != nil {
			return nil, err
		}
		return sizing.SizeBankFromPatterns(pats, tr, h, p), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]float64), nil
}

// SampleSet is the cached form of the DP teacher's training samples.
type SampleSet struct {
	Inputs  []mat.Vector
	Targets []ann.Target
}

// Samples returns the clairvoyant DP teacher's supervised samples over the
// training trace (§4.2) — the expensive half of offline training.
func (c *Cache) Samples(ctx context.Context, pc core.PlanConfig, tr *solar.Trace) (*SampleSet, error) {
	key := artifactKey("samples", planConfigParts(pc), TraceDigest(tr))
	v, err := c.Do(ctx, key, func() (any, error) {
		inputs, targets, err := core.CollectSamples(pc, tr)
		if err != nil {
			return nil, err
		}
		return &SampleSet{Inputs: inputs, Targets: targets}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*SampleSet), nil
}

// Network returns the trained DBN of (pc, training trace, opt), collecting
// the teacher samples through the cache first. The returned network is
// shared; callers must not mutate it (NewProposed never does — inference
// allocates fresh vectors).
func (c *Cache) Network(ctx context.Context, pc core.PlanConfig, tr *solar.Trace, opt core.TrainOptions) (*ann.Network, error) {
	key := artifactKey("dbn", planConfigParts(pc), TraceDigest(tr), opt)
	v, err := c.Do(ctx, key, func() (any, error) {
		samples, err := c.Samples(ctx, pc, tr)
		if err != nil {
			return nil, err
		}
		net, _, err := core.TrainOnSamples(pc, samples.Inputs, samples.Targets, opt)
		return net, err
	})
	if err != nil {
		return nil, err
	}
	return v.(*ann.Network), nil
}

// PlanArtifact is the cached whole-trace DP solution.
type PlanArtifact struct {
	Plan core.PlanResult
}

// Plan returns the §4.2 long-term DP solution over tr. Replay it with
// core.NewOptimalFromPlan, which builds private fine-grained stages per
// scheduler instance.
func (c *Cache) Plan(ctx context.Context, pc core.PlanConfig, tr *solar.Trace) (*PlanArtifact, error) {
	key := artifactKey("plan", planConfigParts(pc), TraceDigest(tr))
	v, err := c.Do(ctx, key, func() (any, error) {
		plan, err := core.PlanTrace(pc, tr)
		if err != nil {
			return nil, err
		}
		return &PlanArtifact{Plan: plan}, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*PlanArtifact), nil
}
