//go:build !(darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd)

package store

import (
	"fmt"
	"runtime"
)

// TryLock has no lock that dies with its holder on this platform, and a
// lock that can go stale would need breaking in turn, so it always
// reports ErrLocked: a stale maintenance lock stays until it is removed
// by hand.
func (osFS) TryLock(name string) (unlock func(), err error) {
	return nil, fmt.Errorf("%w: %s (no flock(2) on %s)", ErrLocked, name, runtime.GOOS)
}
