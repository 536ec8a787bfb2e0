package obs

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
)

// Log format names understood by NewLogger and the CLI -log-format flag.
const (
	LogText = "text"
	LogJSON = "json"
)

// ErrLogFormat reports a log format NewLogger does not know; commands
// treat it as a usage error.
var ErrLogFormat = errors.New("obs: unknown log format")

// NewLogger builds the leveled logger the CLIs and the daemon share. The
// format is LogText (human-readable key=value lines) or LogJSON (one JSON
// object per line, machine-ingestable — the format log aggregators
// correlate with the request/job/run IDs the serving path attaches).
// quiet raises the level to Error so -quiet silences progress chatter
// without hiding failures. A nil writer logs to stderr.
func NewLogger(w io.Writer, format string, quiet bool) (*slog.Logger, error) {
	if w == nil {
		w = os.Stderr
	}
	level := slog.LevelInfo
	if quiet {
		level = slog.LevelError
	}
	opts := &slog.HandlerOptions{Level: level}
	switch format {
	case "", LogText:
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case LogJSON:
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("%w %q (want text or json)", ErrLogFormat, format)
	}
}

// NopLogger returns a logger that discards everything — the nil-is-off
// convention of this package, for libraries that accept an optional
// *slog.Logger.
func NopLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}
