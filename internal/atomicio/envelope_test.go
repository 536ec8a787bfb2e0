package atomicio

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzHeader has a field of its own between the envelope and the
// checksum, the shape of the checkpoint header.
type fuzzHeader struct {
	Envelope
	Seq uint64 `json:"seq"`
	Checksum
}

var fuzzEnvelope = Envelope{Magic: "solarsched-fuzz", Version: 1, Label: "item"}

func seal(t testing.TB, env Envelope, payload string) []byte {
	t.Helper()
	data, err := Seal(&fuzzHeader{Envelope: env, Seq: 7}, []byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func FuzzUnseal(f *testing.F) {
	good := seal(f, fuzzEnvelope, `{"period":3}`)
	f.Add(good)
	f.Add(seal(f, fuzzEnvelope, ""))
	f.Add(seal(f, Envelope{Magic: "solarsched-fuzz", Version: 1}, "unlabelled"))

	flipped := bytes.Clone(good)
	flipped[len(flipped)-2] ^= 0x40
	corrupt := map[string][]byte{
		"no newline":         []byte("garbage with no header line"),
		"bad JSON":           []byte("{not json\n{}"),
		"foreign magic":      seal(f, Envelope{Magic: "other", Version: 1, Label: "item"}, "{}"),
		"future version":     seal(f, Envelope{Magic: "solarsched-fuzz", Version: 999, Label: "item"}, "{}"),
		"wrong label":        seal(f, Envelope{Magic: "solarsched-fuzz", Version: 1, Label: "other"}, "{}"),
		"truncated payload":  good[:len(good)-5],
		"extra payload":      append(bytes.Clone(good), '\n'),
		"checksum mismatch":  flipped,
		"non-canonical JSON": bytes.Replace(good, []byte(`{"magic"`), []byte(`{ "magic"`), 1),
	}
	for name, data := range corrupt {
		h := fuzzHeader{Envelope: fuzzEnvelope}
		if _, err := Unseal(&h, data); !errors.Is(err, ErrCorrupt) {
			f.Fatalf("%s: err = %v, want ErrCorrupt", name, err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		h := fuzzHeader{Envelope: fuzzEnvelope}
		payload, err := Unseal(&h, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		resealed, err := Seal(&h, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resealed, data) {
			t.Fatalf("accepted input re-seals differently:\n got %q\nwant %q", resealed, data)
		}
		start := len(data) - len(payload)
		step := 1 + len(payload)/64
		for i := start; i < len(data); i += step {
			bad := bytes.Clone(data)
			bad[i] ^= 0x01
			if _, err := Unseal(&fuzzHeader{Envelope: fuzzEnvelope}, bad); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload byte %d flipped: err = %v, want ErrCorrupt", i-start, err)
			}
		}
	})
}
