// Package cli holds the plumbing shared by the two commands, solarsched
// (experiment mode and its node, fleet, cap and trace verbs) and the
// solarschedd daemon: signal-aware contexts for graceful shutdown,
// conventional exit codes, and the checkpoint/resume flag bundle wired
// into ckpt and sim.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"solarsched/internal/ckpt"
	"solarsched/internal/sim"
)

// SignalContext returns a context cancelled on SIGINT or SIGTERM. The
// first signal requests a graceful stop (the engine flushes a final
// checkpoint at the next period boundary and unwinds); a second signal
// restores default handling, so it kills the process immediately.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// ExitCodeInterrupted is the conventional shell exit status for a run
// stopped by SIGINT/SIGTERM (128 + SIGINT).
const ExitCodeInterrupted = 130

// HardExitOnSecondSignal arms the daemon escape hatch: once ctx (from
// SignalContext) is done, one more SIGINT/SIGTERM exits the process
// immediately with ExitCodeInterrupted instead of waiting for the
// graceful drain — a stuck shutdown must never require kill -9. The
// CLIs get this behavior from NotifyContext's stop semantics already;
// long-draining servers arm it explicitly.
func HardExitOnSecondSignal(ctx context.Context) {
	go func() {
		<-ctx.Done()
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
		fmt.Fprintln(os.Stderr, "second signal: exiting without drain")
		os.Exit(ExitCodeInterrupted)
	}()
}

// ExitCode maps a command error to a process exit status: 0 for nil,
// ExitCodeInterrupted for a graceful signal stop, 1 for everything else.
// An interrupted run is not a failure — its checkpoint is valid — but it
// must not look like success to the calling script either.
func ExitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, sim.ErrCanceled), errors.Is(err, context.Canceled):
		return ExitCodeInterrupted
	default:
		return 1
	}
}

// CheckpointFlags bundles the checkpoint/resume command-line surface
// shared by the simulator CLIs.
type CheckpointFlags struct {
	// Path is the checkpoint file (-checkpoint). Empty disables
	// checkpointing.
	Path string
	// Resume requests resuming from the checkpoint at Path (-resume).
	Resume bool
	// Every forces a durable write every N periods (-ckpt-every). Zero
	// selects the adaptive default: a checkpoint is offered at every
	// period boundary but persisted at most once per
	// ckpt.DefaultInterval of wall time.
	Every int
}

// Register installs the flags on fs.
func (c *CheckpointFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Path, "checkpoint", "", "checkpoint file; written atomically during the run")
	fs.BoolVar(&c.Resume, "resume", false, "resume from the -checkpoint file instead of starting fresh")
	fs.IntVar(&c.Every, "ckpt-every", 0,
		"periods between durable checkpoints (0 = every period, throttled to one write per second)")
}

// Apply opens the checkpoint store and translates the flag bundle into
// sim.RunOption values: the sink, the write cadence, and — under -resume —
// the restored run state. It returns the options, the store (nil when
// checkpointing is disabled) and the restored state (nil unless resuming)
// so the caller can report the checkpoint location and resume point.
func (c *CheckpointFlags) Apply() ([]sim.RunOption, *ckpt.Store, *sim.RunState, error) {
	if c.Path == "" {
		if c.Resume {
			return nil, nil, nil, fmt.Errorf("-resume requires -checkpoint")
		}
		return nil, nil, nil, nil
	}
	if c.Every < 0 {
		return nil, nil, nil, fmt.Errorf("-ckpt-every must be >= 0, got %d", c.Every)
	}
	store, err := ckpt.NewStore(c.Path)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := []sim.RunOption{sim.WithSink(store.Sink())}
	if c.Every > 0 {
		opts = append(opts, sim.WithCheckpointEvery(c.Every))
	} else {
		opts = append(opts, sim.WithGate(ckpt.Throttle(ckpt.DefaultInterval)))
	}
	var rs *sim.RunState
	if c.Resume {
		var hdr ckpt.Header
		var usedPrev bool
		rs, hdr, usedPrev, err = store.Load()
		if err != nil {
			return nil, nil, nil, err
		}
		if usedPrev {
			fmt.Fprintf(os.Stderr, "warning: newest checkpoint unreadable; resuming from previous generation (seq %d)\n", hdr.Seq)
		}
		opts = append(opts, sim.WithResume(rs))
	}
	return opts, store, rs, nil
}
