package device

import (
	"reflect"
	"testing"
)

func TestNVStoreWords(t *testing.T) {
	s := NewNVStore()
	if _, ok := s.Word("missing"); ok {
		t.Fatal("missing key found")
	}
	s.SetWord("state", 42)
	if v, ok := s.Word("state"); !ok || v != 42 {
		t.Fatalf("Word = (%d, %v)", v, ok)
	}
	if got := s.WordOr("state", 7); got != 42 {
		t.Fatalf("WordOr existing = %d", got)
	}
	if got := s.WordOr("missing", 7); got != 7 {
		t.Fatalf("WordOr default = %d", got)
	}
	if s.Writes() != 1 {
		t.Fatalf("writes = %d, want 1", s.Writes())
	}
}

func TestNVStoreBlobsAreCopied(t *testing.T) {
	s := NewNVStore()
	src := []byte{1, 2, 3}
	s.SetBlob("b", src)
	src[0] = 99 // must not affect the stored copy
	got, ok := s.PeekBlob("b")
	if !ok || !reflect.DeepEqual(got, []byte{1, 2, 3}) {
		t.Fatalf("PeekBlob = (%v, %v)", got, ok)
	}
	if _, ok := s.PeekBlob("missing"); ok {
		t.Fatal("missing blob found")
	}
}

func TestNVStoreDeleteAndKeys(t *testing.T) {
	s := NewNVStore()
	s.SetWord("b", 1)
	s.SetBlob("a", []byte{1})
	s.SetWord("a", 2) // same key in both spaces is one logical key
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Keys = %v", got)
	}
	s.Delete("a")
	if got := s.Keys(); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("Keys after delete = %v", got)
	}
}

// TestNVStoreSnapshotIsolated: a saved state survives every later write
// to the store it came from and to each store it is restored into,
// including the displaced blob buffers whose ownership SetBlobOwned
// hands back to the caller.
func TestNVStoreSnapshotIsolated(t *testing.T) {
	s := NewNVStore()
	s.SetWord("w", 1)
	s.SetBlob("b", []byte{1})
	st := s.Save()
	s.SetWord("w", 2)
	old := s.SetBlobOwned("b", []byte{2})
	old[0] = 9 // the caller owns the displaced buffer and may reuse it
	for i := 0; i < 2; i++ {
		r := NewNVStore()
		r.SetWord("stale", 3)
		r.Restore(&st)
		if got := r.WordOr("w", 0); got != 1 {
			t.Fatalf("restore %d: word %d, want 1", i, got)
		}
		if got, _ := r.PeekBlob("b"); !reflect.DeepEqual(got, []byte{1}) {
			t.Fatalf("restore %d: blob %v, want [1]", i, got)
		}
		if got := r.Keys(); !reflect.DeepEqual(got, []string{"b", "w"}) {
			t.Fatalf("restore %d: keys %v", i, got)
		}
		if r.Writes() != 2 {
			t.Fatalf("restore %d: %d writes, want 2", i, r.Writes())
		}
		old := r.SetBlobOwned("b", []byte{2})
		old[0] = 9
	}
	if s.String() == "" {
		t.Error("empty stringer")
	}
}
