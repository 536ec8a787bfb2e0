// Package atomicio provides crash-consistent file publication: bytes land
// in a temporary file in the target's directory, are fsynced, and are
// renamed over the target in one atomic step. A crash at any instant
// leaves either the old contents or the complete new contents at the
// path — never a truncated or interleaved file. It sits below every
// writer of results and checkpoints (internal/ckpt wraps it; internal/obs
// uses it for -metrics-out).
//
// It also owns the one sealed-file format (Seal/Unseal, envelope.go): a
// JSON header line carrying the payload's length and SHA-256, then the
// payload. Checkpoints, store artifacts, dist messages and learn
// telemetry are all sealed with it, so a torn or bit-flipped file is
// rejected with ErrCorrupt wherever it is read.
package atomicio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile writes data to path with crash consistency.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteFileFS(OS, path, data, perm)
}

// WriteFileFS is WriteFile on an injected filesystem. fsys nil means OS.
func WriteFileFS(fsys FS, path string, data []byte, perm os.FileMode) error {
	w, err := NewWriterFS(fsys, path, perm)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Commit()
}

// Writer is an io.Writer whose output becomes visible at the target path
// only on Commit, via the same temp-fsync-rename protocol as WriteFile.
// Stream writers (CSV tables, slot logs, metrics dumps) use it so an
// interrupted run never leaves a torn output file: either the previous
// file survives untouched or the complete new one replaces it.
type Writer struct {
	f    File
	fs   FS
	path string
	done bool
}

var _ io.WriteCloser = (*Writer)(nil)

// TempPattern returns the os.CreateTemp pattern the protocol uses for the
// in-flight temporary next to path. Exposed so recovery sweeps (the
// artifact store quarantining a write a crash left behind) can recognize
// orphaned temporaries by name.
func TempPattern(path string) string {
	return "." + filepath.Base(path) + ".tmp-*"
}

// NewWriter opens a temporary file next to path. Call Commit to publish
// it at path, or Abort to discard it.
func NewWriter(path string, perm os.FileMode) (*Writer, error) {
	return NewWriterFS(OS, path, perm)
}

// NewWriterFS is NewWriter on an injected filesystem. fsys nil means OS.
func NewWriterFS(fsys FS, path string, perm os.FileMode) (*Writer, error) {
	if fsys == nil {
		fsys = OS
	}
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, TempPattern(path))
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(perm); err != nil {
		f.Close()
		fsys.Remove(f.Name())
		return nil, err
	}
	return &Writer{f: f, fs: fsys, path: path}, nil
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.done {
		return 0, fmt.Errorf("atomicio: write after commit/abort of %s", w.path)
	}
	return w.f.Write(p)
}

// Commit fsyncs the temporary file, renames it over the target path and
// fsyncs the directory. After Commit the writer is spent.
func (w *Writer) Commit() error {
	if w.done {
		return fmt.Errorf("atomicio: double commit of %s", w.path)
	}
	w.done = true
	tmp := w.f.Name()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		w.fs.Remove(tmp)
		return err
	}
	if err := w.f.Close(); err != nil {
		w.fs.Remove(tmp)
		return err
	}
	if err := w.fs.Rename(tmp, w.path); err != nil {
		w.fs.Remove(tmp)
		return err
	}
	return w.fs.SyncDir(filepath.Dir(w.path))
}

// Abort discards the temporary file; the target path is untouched. Safe to
// call after Commit (it then does nothing), so callers can `defer Abort()`.
func (w *Writer) Abort() error {
	if w.done {
		return nil
	}
	w.done = true
	tmp := w.f.Name()
	w.f.Close()
	return w.fs.Remove(tmp)
}

// Close implements io.Closer as Commit, so the writer drops into APIs that
// close their output. Prefer calling Commit explicitly.
func (w *Writer) Close() error {
	if w.done {
		return nil
	}
	return w.Commit()
}

// SyncDir fsyncs a directory so a just-committed rename survives power
// loss. Platforms that cannot sync directories (the open or sync fails)
// degrade gracefully: the rename itself is still atomic.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}
