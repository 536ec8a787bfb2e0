// Distributed-fleet wiring for the fleet subcommand: the coordinator
// side (fork local worker processes, supervise the batch through
// internal/dist) and the worker side (serve a coordinator directory
// until the batch ends).
package main

import (
	"context"
	"log/slog"
	"os"
	"os/exec"
	"time"

	"solarsched/internal/dist"
	"solarsched/internal/fleet"
	"solarsched/internal/obs"
)

// runFleetWorker is the `fleet -worker` body: one worker process
// serving the coordinator directory inside the session s, which it
// closes. Returns nil when the batch ends and the cancellation (exit
// 130) on SIGINT/SIGTERM, after handing any in-flight claim back.
func runFleetWorker(ctx context.Context, s *obs.Session, dir string, heartbeat time.Duration) (err error) {
	defer s.Close(&err)
	status, err := dist.RunWorker(ctx, dist.WorkerOptions{
		Dir:       dir,
		Registry:  s.Reg,
		Logger:    s.Logger,
		Heartbeat: heartbeat,
	})
	s.Logger.Info("worker finished", "id", status.ID, "claims", status.Claims,
		"results", status.Results, "errors", status.Errors, "requeues", status.Requeues)
	return err
}

// coordinateFleet forks cfg.workers local `solarsched fleet -worker`
// processes (zero is valid: external workers — solarschedd -worker — or
// the coordinator's local fallback carry the batch) and supervises the
// batch to completion.
func coordinateFleet(ctx context.Context, logger *slog.Logger, reg *obs.Registry, spec *fleet.FileSpec, cfg fleetFlags) (*fleet.Report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var children []*exec.Cmd
	for i := 0; i < cfg.workers; i++ {
		cmd := exec.Command(exe, "fleet", "-worker",
			"-coordinator-dir", cfg.coordDir,
			"-heartbeat", cfg.heartbeat.String())
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			logger.Error("forking worker failed", "err", err)
			continue
		}
		logger.Info("forked worker", "pid", cmd.Process.Pid)
		children = append(children, cmd)
	}

	rep, runErr := dist.Coordinate(ctx, spec, dist.Options{
		Dir:            cfg.coordDir,
		Registry:       reg,
		Logger:         logger,
		LeaseTTL:       cfg.leaseTTL,
		StragglerAfter: cfg.stragglerAfter,
		Retry:          fleet.RetryPolicy{MaxAttempts: cfg.retryAttempts},
	})

	// The done marker is on disk: forked workers exit on their next
	// poll. Reap them, escalating to SIGKILL only if one wedges.
	for _, cmd := range children {
		waited := make(chan struct{})
		go func(c *exec.Cmd) { _ = c.Wait(); close(waited) }(cmd)
		select {
		case <-waited:
		case <-time.After(10 * time.Second):
			logger.Warn("worker did not exit after batch end, killing", "pid", cmd.Process.Pid)
			_ = cmd.Process.Kill()
			<-waited
		}
	}
	return rep, runErr
}
