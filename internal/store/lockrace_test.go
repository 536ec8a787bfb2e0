package store

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// plantStaleLock writes a lock file and backdates it past LockStale.
func plantStaleLock(t *testing.T, s *Store) {
	t.Helper()
	data, _ := json.Marshal(lockInfo{PID: -1, AtUnixMS: time.Now().Add(-time.Hour).UnixMilli()})
	if err := s.fsys.WriteFileExcl(s.lockPath(), data, 0o644); err != nil {
		t.Fatalf("planting stale lock: %v", err)
	}
	old := time.Now().Add(-time.Hour)
	if err := s.fsys.Chtimes(s.lockPath(), old, old); err != nil {
		t.Fatalf("backdating stale lock: %v", err)
	}
}

// raceAcquire starts n contenders for the maintenance lock at once and
// returns the release funcs of those that got it.
func raceAcquire(t *testing.T, s *Store, n, round int) []func() {
	t.Helper()
	var (
		mu       sync.Mutex
		releases []func()
		wg       sync.WaitGroup
	)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			release, err := s.acquireLock()
			if err != nil {
				if !errors.Is(err, ErrLocked) {
					t.Errorf("round %d: unexpected acquire error: %v", round, err)
				}
				return
			}
			mu.Lock()
			releases = append(releases, release)
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	return releases
}

// TestLockStaleBreakRace is the regression for unserialized stale
// breaks: when several processes race to break the same stale lock, at
// most one may end up holding it. Breaking with a bare Remove(lockPath)
// let a slow breaker delete the fresh lock a fast breaker had just
// created; breaking by renaming the lock aside let a slow breaker move a
// fresh lock away and back, and a third contender acquired in between.
// Either way two processes held the lock at once. Breakers now serialize
// behind a break lock and re-check staleness under it, so every round
// below must elect at most one winner, and the lock file must exist the
// whole time a winner holds it.
func TestLockStaleBreakRace(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir, Options{LockStale: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	const breakers = 8
	for round := 0; round < 40; round++ {
		plantStaleLock(t, s)

		releases := raceAcquire(t, s, breakers, round)
		if len(releases) > 1 {
			t.Fatalf("round %d: %d concurrent holders of the maintenance lock", round, len(releases))
		}
		if len(releases) == 1 {
			// While held, the lock must be visible to everyone else.
			if _, err := os.Stat(filepath.Join(dir, "maintenance.lock")); err != nil {
				t.Fatalf("round %d: winner holds the lock but the lock file is gone: %v", round, err)
			}
			if _, err := s.acquireLock(); !errors.Is(err, ErrLocked) {
				t.Fatalf("round %d: second acquire while held: got %v, want ErrLocked", round, err)
			}
			releases[0]()
		}
		// Whether broken-and-held or broken-and-lost, the stale corpse
		// must be gone so the next round starts clean.
		_ = os.Remove(filepath.Join(dir, "maintenance.lock"))
	}
}

// TestLockStaleBreakLeavesNoCorpse checks the break path cleans up the
// renamed-aside stale lock file.
func TestLockStaleBreakLeavesNoCorpse(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir, Options{LockStale: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	plantStaleLock(t, s)
	release, err := s.acquireLock()
	if err != nil {
		t.Fatalf("breaking a stale lock: %v", err)
	}
	release()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		if f.Name() != "maintenance.lock" {
			// objects/ and quarantine/ are dirs; anything else at the
			// root is leftover break debris.
			t.Fatalf("stale break left %q behind", f.Name())
		}
	}
}

// TestLockStaleBreakAfterCrashedBreaker plants, beside a stale lock, the
// break file a breaker that crashed mid-break leaves behind. The break
// lock died with that breaker, so the file must neither wedge the store
// nor let two contenders through: every round elects exactly one holder.
func TestLockStaleBreakAfterCrashedBreaker(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir, Options{LockStale: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	breakFile := filepath.Join(dir, "maintenance.lock.break")
	for round := 0; round < 40; round++ {
		plantStaleLock(t, s)
		if err := os.WriteFile(breakFile, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-time.Hour)
		if err := os.Chtimes(breakFile, old, old); err != nil {
			t.Fatal(err)
		}
		releases := raceAcquire(t, s, 8, round)
		if len(releases) != 1 {
			t.Fatalf("round %d: %d holders of the maintenance lock, want 1", round, len(releases))
		}
		releases[0]()
	}
}

// TestLockStaleBreakYieldsToLiveBreaker checks that a contender never
// breaks a stale lock while another breaker holds the break lock, and
// breaks it once that breaker is gone.
func TestLockStaleBreakYieldsToLiveBreaker(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s, err := Open(dir, Options{LockStale: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	plantStaleLock(t, s)
	unlock, err := s.fsys.TryLock(s.lockPath() + ".break")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.acquireLock(); !errors.Is(err, ErrLocked) {
		t.Fatalf("acquire during a live break: got %v, want ErrLocked", err)
	}
	if data, err := os.ReadFile(s.lockPath()); err != nil || !strings.Contains(string(data), `"pid":-1`) {
		t.Fatalf("the stale lock was touched during a live break: %q, %v", data, err)
	}
	unlock()
	release, err := s.acquireLock()
	if err != nil {
		t.Fatalf("acquire after the breaker left: %v", err)
	}
	release()
}
