// Package dist shards one fleet across coordinator/worker processes
// that share nothing but a directory. The coordinator resolves a fleet
// spec into per-run work items and publishes them as files; workers
// claim items by atomically renaming them into claimed/, heartbeat by
// touching their lease, execute the run against the shared artifact
// store, and publish the result as another file. Every protocol message
// is sealed under a store.Header label (atomicio.Seal/Unseal) and
// written with the atomicio temp+fsync+rename protocol, so a reader
// either sees a complete verified message or nothing.
//
// Robustness is the design center, the distributed analogue of the
// paper's single-node NVP problem: a worker may be SIGKILL'd at any
// instant, and the batch must still complete with an aggregate digest
// bit-identical to a sequential local run. Three mechanisms deliver
// that (DESIGN.md §13):
//
//   - lease reclamation: a claimed item whose lease mtime goes stale
//     (the worker stopped heartbeating — crashed, killed, partitioned)
//     is reclaimed by the coordinator and republished under the
//     fleet.RetryPolicy attempt budget;
//   - speculation: an item claimed for longer than StragglerAfter is
//     republished so a second worker races the straggler — runs are
//     deterministic, so whichever copy commits first is correct;
//   - local fallback: a coordinator that sees zero live workers for
//     LocalFallbackAfter claims items itself and executes them
//     in-process, degrading gracefully to the PR-4 single-process
//     fleet.
//
// Layout under the coordinator directory:
//
//	batch.json           sealed manifest (run IDs in spec order)
//	batch.done           shutdown marker, written when the batch ends
//	queue/<name>*.json   unclaimed work items
//	claimed/<name>*.json leases; mtime is the heartbeat clock
//	results/<name>.json  committed success result for a run
//	results/<name>.e<k>.json  error result from attempt k
//	workers/<id>.json    worker registrations; mtime is liveness
//	store/               shared content-addressed artifact store
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"strings"

	"solarsched/internal/atomicio"
	"solarsched/internal/fleet"
	"solarsched/internal/sim"
	"solarsched/internal/store"
)

// Envelope labels for the protocol's on-disk messages.
const (
	labelItem     = "dist-item"
	labelResult   = "dist-result"
	labelManifest = "dist-manifest"
	labelWorker   = "dist-worker"
	labelDone     = "dist-done"
)

// Subdirectories and markers under the coordinator directory.
const (
	queueDir     = "queue"
	claimedDir   = "claimed"
	resultsDir   = "results"
	workersDir   = "workers"
	storeDir     = "store"
	manifestFile = "batch.json"
	doneFile     = "batch.done"
)

// Item is one unit of work: a fully resolved fleet run (the coordinator
// resolves defaults before publishing, so workers compile it with
// identical semantics no matter their flags). Attempt counts
// republications; Worker and ClaimedAtUnixMS are filled in by the
// claiming worker when it rewrites its lease.
type Item struct {
	ID              string        `json:"id"`
	Attempt         int           `json:"attempt"`
	Speculative     bool          `json:"speculative,omitempty"`
	Spec            fleet.RunSpec `json:"spec"`
	Worker          string        `json:"worker,omitempty"`
	ClaimedAtUnixMS int64         `json:"claimed_at_unix_ms,omitempty"`
}

// Result is a worker's published outcome for one run. Success results
// commit to the run's canonical path; error results to per-attempt
// paths, so an error can never shadow a success.
type Result struct {
	ID        string      `json:"id"`
	Scheduler string      `json:"scheduler,omitempty"`
	Digest    string      `json:"digest,omitempty"`
	Error     string      `json:"error,omitempty"`
	Transient bool        `json:"transient,omitempty"`
	Attempt   int         `json:"attempt"`
	Worker    string      `json:"worker"`
	ElapsedNS int64       `json:"elapsed_ns"`
	Result    *sim.Result `json:"result,omitempty"`
}

// manifest records the batch for operators and debugging; the
// coordinator's in-memory state is authoritative.
type manifest struct {
	Runs            []string `json:"runs"`
	CreatedAtUnixMS int64    `json:"created_at_unix_ms"`
}

// itemName maps a run ID onto a filesystem-safe name: IDs may contain
// '/', spaces, anything. 80 bits of SHA-256 is collision-free at fleet
// scale and keeps directory listings readable.
func itemName(id string) string {
	sum := sha256.Sum256([]byte(id))
	return hex.EncodeToString(sum[:10])
}

// baseName extracts the run's itemName from a protocol filename
// ("<name>.json", "<name>.a2.json", "<name>.e1.json", ...).
func baseName(filename string) string {
	base, _, _ := strings.Cut(filename, ".")
	return base
}

// protocolFile reports whether a directory entry is a published
// protocol message. atomicio writes in-flight temporaries as
// ".<name>.tmp-*" in the destination directory; scanning (or worse,
// claiming) one would race the publisher's rename, so every directory
// scan filters through this predicate.
func protocolFile(filename string) bool {
	return !strings.HasPrefix(filename, ".") && strings.HasSuffix(filename, ".json")
}

// writeSealed marshals v, seals it under label and publishes it
// atomically — the one write path for every protocol message.
func writeSealed(fsys store.FS, path, label string, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("dist: marshal %s: %w", label, err)
	}
	data, err := atomicio.Seal(store.Header(label), payload)
	if err != nil {
		return err
	}
	return atomicio.WriteFileFS(fsys, path, data, 0o644)
}

// readSealed reads, verifies and unmarshals a protocol message. A
// missing file returns fs.ErrNotExist; a torn or corrupt one returns
// atomicio.ErrCorrupt — callers treat both as "message absent" and
// let reclamation recover.
func readSealed(fsys store.FS, path, label string, v any) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	payload, err := atomicio.Unseal(store.Header(label), data)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("%w: %s payload: %v", atomicio.ErrCorrupt, label, err)
	}
	return nil
}

// exists reports whether path exists on fsys.
func exists(fsys store.FS, path string) bool {
	_, err := fsys.Stat(path)
	return err == nil
}

// batchDone reports whether the coordinator has ended the batch.
func batchDone(fsys store.FS, dir string) bool {
	return exists(fsys, filepath.Join(dir, doneFile))
}

// discardLogger returns l, or a drop-everything logger when nil.
func discardLogger(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// ErrKilled is returned by a worker whose FaultPlan drew a kill: the
// in-process stand-in for SIGKILL. The worker stops dead — lease left
// in place, no result published, no cleanup — and the chaos harness
// decides whether to spawn a replacement.
var ErrKilled = errors.New("dist: worker killed by fault plan")
