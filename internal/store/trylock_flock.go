//go:build darwin || dragonfly || freebsd || illumos || linux || netbsd || openbsd

package store

import (
	"errors"
	"fmt"
	"os"
	"syscall"
)

// TryLock holds flock(2) on name. A holder removes name before releasing,
// so a contender that opened the file just before the removal locks an
// unlinked inode; it sees the path no longer names that inode and yields
// rather than hold a lock nobody else can see.
func (osFS) TryLock(name string) (unlock func(), err error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("%w: %s", ErrLocked, name)
		}
		return nil, fmt.Errorf("store: locking %s: %w", name, err)
	}
	held, ferr := f.Stat()
	named, perr := os.Stat(name)
	if ferr != nil || perr != nil || !os.SameFile(held, named) {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, name)
	}
	return func() {
		_ = os.Remove(name)
		f.Close()
	}, nil
}
