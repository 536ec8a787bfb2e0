package atomicio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
)

// ErrCorrupt is wrapped into every Unseal rejection: missing or malformed
// header, foreign magic, label or format version, payload length or
// checksum mismatch. Callers match it with errors.Is and treat the file
// as absent (fall back to an older generation, quarantine, rebuild).
var ErrCorrupt = errors.New("atomicio: corrupt sealed file")

// Envelope is the identifying head of a sealed header. Label names the
// sealed object (a store key, a protocol message kind) and is omitted
// from the header when empty.
type Envelope struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Label   string `json:"key,omitempty"`
}

// Checksum is the tail of a sealed header; Seal fills it in.
type Checksum struct {
	PayloadBytes  int    `json:"payload_bytes"`
	PayloadSHA256 string `json:"payload_sha256"`
}

func (e *Envelope) envelope() *Envelope { return e }
func (c *Checksum) checksum() *Checksum { return c }

// Header is a pointer to a caller's header struct: it embeds Envelope
// first and Checksum last, with its own fields in between, and the JSON
// field order follows the struct.
type Header interface {
	envelope() *Envelope
	checksum() *Checksum
}

// Bare is a header with no fields of its own.
type Bare struct {
	Envelope
	Checksum
}

// Seal fills in h's checksum for payload and returns the sealed file: h as
// one JSON line terminated by '\n', then the payload.
func Seal(h Header, payload []byte) ([]byte, error) {
	sum := sha256.Sum256(payload)
	*h.checksum() = Checksum{PayloadBytes: len(payload), PayloadSHA256: hex.EncodeToString(sum[:])}
	hb, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("atomicio: encode %s header: %w", h.envelope().Magic, err)
	}
	out := make([]byte, 0, len(hb)+1+len(payload))
	out = append(out, hb...)
	out = append(out, '\n')
	return append(out, payload...), nil
}

// Unseal verifies data and returns its payload, which aliases data. On
// entry h's Envelope holds the expected magic, version and label; on
// return h holds the decoded header. The header line must be exactly what
// Seal writes for it, so anything accepted re-seals to the same bytes.
func Unseal(h Header, data []byte) ([]byte, error) {
	env := h.envelope()
	want := *env
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: %s: missing header line", ErrCorrupt, want.Magic)
	}
	*env, *h.checksum() = Envelope{}, Checksum{}
	if err := json.Unmarshal(data[:nl], h); err != nil {
		return nil, fmt.Errorf("%w: %s: bad header: %v", ErrCorrupt, want.Magic, err)
	}
	switch {
	case env.Magic != want.Magic:
		return nil, fmt.Errorf("%w: not a %s file (magic %q)", ErrCorrupt, want.Magic, env.Magic)
	case env.Version != want.Version:
		return nil, fmt.Errorf("%w: %s: format version %d, this build reads %d",
			ErrCorrupt, want.Magic, env.Version, want.Version)
	case env.Label != want.Label:
		return nil, fmt.Errorf("%w: %s: file holds %q, expected %q", ErrCorrupt, want.Magic, env.Label, want.Label)
	}
	if canon, err := json.Marshal(h); err != nil || !bytes.Equal(canon, data[:nl]) {
		return nil, fmt.Errorf("%w: %s: non-canonical header", ErrCorrupt, want.Magic)
	}
	sum := h.checksum()
	payload := data[nl+1:]
	if len(payload) != sum.PayloadBytes {
		return nil, fmt.Errorf("%w: %s: payload is %d bytes, header says %d (torn write)",
			ErrCorrupt, want.Magic, len(payload), sum.PayloadBytes)
	}
	if got := sha256.Sum256(payload); hex.EncodeToString(got[:]) != sum.PayloadSHA256 {
		return nil, fmt.Errorf("%w: %s: payload checksum mismatch (torn write)", ErrCorrupt, want.Magic)
	}
	return payload, nil
}
