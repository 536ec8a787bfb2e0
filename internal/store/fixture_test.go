package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"solarsched/internal/atomicio"
)

// The fixtures pin the on-disk format: both were written by an earlier
// build, and this one must read them and write the same bytes back.

// TestArtifactFixture: a sized-bank entry from a fleet run's store.
func TestArtifactFixture(t *testing.T) {
	const kind, digest = "sizing", "03d06a4ef894a92c4c38fa4cde647509726516f98a7d73f4e56ef7d291069569"
	key := kind + ":" + digest
	data, err := os.ReadFile(filepath.Join("testdata", "sizing.art"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(src.objectsDir(), kind), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src.entryPath(kind, digest), data, 0o644); err != nil {
		t.Fatal(err)
	}
	payload, err := src.Get(key)
	if err != nil {
		t.Fatal(err)
	}

	dst, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(dst.entryPath(kind, digest))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Put wrote\n%q\nfixture holds\n%q", got, data)
	}
}

// TestLabelSealedFixture: a dist work item, sealed under a label the way
// dist messages and learn segments are.
func TestLabelSealedFixture(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "dist-item.sealed"))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := atomicio.Unseal(Header("dist-item"), data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := atomicio.Seal(Header("dist-item"), payload)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("re-sealed\n%q\nfixture holds\n%q", got, data)
	}
}
