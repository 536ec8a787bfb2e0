package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"

	"solarsched/internal/atomicio"
)

// Flags bundles the opt-in profiling, metrics-emission and log-format
// flags every command exposes. Register the flags, parse, then open one
// session around the command's work:
//
//	var of obs.Flags
//	of.Register(fs)
//	fs.Parse(args)
//	s, err := of.Open(quiet)
//	if err != nil {
//		return err
//	}
//	defer s.Close(&err)
type Flags struct {
	CPUProfile string
	MemProfile string
	TracePath  string
	Metrics    bool
	Format     string
	Out        string
	LogFormat  string
}

// Register installs the flags on the given flag set.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.TracePath, "exectrace", "", "write a runtime execution trace to this file")
	fs.BoolVar(&f.Metrics, "metrics", false, "emit collected metrics when done")
	fs.StringVar(&f.Format, "metrics-format", FormatSummary, "metrics output format: prom, json or summary")
	fs.StringVar(&f.Out, "metrics-out", "", "metrics output path (default stdout)")
	fs.StringVar(&f.LogFormat, "log-format", LogText, "diagnostic log format: text or json")
}

// Logger builds the CLI's diagnostic logger from -log-format, writing to
// stderr so stdout stays reserved for data (tables, metrics, reports).
// quiet (the CLI's -quiet flag) raises the level to Error.
func (f *Flags) Logger(quiet bool) (*slog.Logger, error) {
	return NewLogger(os.Stderr, f.LogFormat, quiet)
}

// Start begins CPU profiling and execution tracing as requested. The
// returned stop function ends them and writes the heap profile; it is
// safe to call when nothing was started.
func (f *Flags) Start() (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if f.TracePath != "" {
		traceFile, err = os.Create(f.TracePath)
		if err != nil {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, err
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && first == nil {
				first = err
			}
		}
		if traceFile != nil {
			trace.Stop()
			if err := traceFile.Close(); err != nil && first == nil {
				first = err
			}
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				if first == nil {
					first = err
				}
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(mf); err != nil && first == nil {
					first = err
				}
				if err := mf.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}, nil
}

// Session is one command's open observability session: where its
// diagnostics go, its logger, the registry its work reports to, and the
// profiles that Close flushes.
type Session struct {
	// Diag receives the command's human-readable output: stdout, or
	// io.Discard under the caller's -quiet.
	Diag io.Writer
	// Logger writes leveled diagnostics to stderr (see Flags.Logger).
	Logger *slog.Logger
	// Reg is Default() under -metrics, otherwise nil (instrumentation
	// off).
	Reg *Registry

	flags *Flags
	stop  func() error
}

// Open starts the command's observability session after its flags are
// parsed: it builds the logger (quiet raises its level to Error and
// silences Diag) and starts the CPU profile and the execution trace.
//
// One rule covers every exit: once Open succeeds, Close stops and flushes
// the CPU profile, the execution trace and the heap profile and then
// emits the metrics, whether the work succeeded, failed or was canceled.
// The work's own error still decides the exit status; a cleanup error is
// reported only when the work succeeded.
func (f *Flags) Open(quiet bool) (*Session, error) {
	logger, err := f.Logger(quiet)
	if err != nil {
		return nil, err
	}
	stop, err := f.Start()
	if err != nil {
		return nil, err
	}
	s := &Session{Diag: os.Stdout, Logger: logger, flags: f, stop: stop}
	if quiet {
		s.Diag = io.Discard
	}
	if f.Metrics {
		s.Reg = Default()
	}
	return s, nil
}

// Close ends the session under Open's rule. errp points at the command's
// error: Close leaves a non-nil one alone and otherwise stores the first
// cleanup error. Defer it right after Open:
//
//	defer s.Close(&err)
func (s *Session) Close(errp *error) {
	err := s.stop()
	if eerr := s.flags.Emit(os.Stdout, Default()); err == nil {
		err = eerr
	}
	if *errp == nil {
		*errp = err
	}
}

// WithFlags is the one-call session for simple subcommands: it registers
// the observability flags on fs (after the caller's own), parses args and
// runs fn inside a session opened without -quiet.
//
//	fs := flag.NewFlagSet("gen", flag.ExitOnError)
//	days := fs.Int("days", 7, "...")
//	return obs.WithFlags(fs, args, func() error { ... })
func WithFlags(fs *flag.FlagSet, args []string, fn func() error) (err error) {
	var f Flags
	f.Register(fs)
	fs.Parse(args)
	s, err := f.Open(false)
	if err != nil {
		return err
	}
	defer s.Close(&err)
	return fn()
}

// Emit writes the registry's snapshot in the configured format when
// -metrics was given. Output goes to -metrics-out when set, otherwise to
// fallback (typically stdout).
func (f *Flags) Emit(fallback io.Writer, reg *Registry) error {
	if !f.Metrics {
		return nil
	}
	if f.Out != "" {
		// Publish atomically: a crash mid-emission leaves the previous
		// metrics file intact rather than a truncated one.
		w, err := atomicio.NewWriter(f.Out, 0o644)
		if err != nil {
			return err
		}
		defer w.Abort()
		if err := WriteFormat(w, reg.Snapshot(), f.Format); err != nil {
			return fmt.Errorf("obs: emitting metrics: %w", err)
		}
		return w.Commit()
	}
	if err := WriteFormat(fallback, reg.Snapshot(), f.Format); err != nil {
		return fmt.Errorf("obs: emitting metrics: %w", err)
	}
	return nil
}
