package diskstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The boot scan reads segments through a scanWindow-sized buffer, not
// whole. These tests place frames across the window's edges and check
// that recovery is exactly what a whole-file scan gives.

// writeSegment writes one segment file of frames with the given body
// sizes (keys "w-000", ...; body i filled with byte i) and returns its
// path, the bodies and each frame's start offset.
func writeSegment(tb testing.TB, dir string, sizes []int) (path string, bodies map[string][]byte, offs []int64) {
	tb.Helper()
	bodies = map[string][]byte{}
	var data []byte
	for i, n := range sizes {
		k := fmt.Sprintf("w-%03d", i)
		bodies[k] = bytes.Repeat([]byte{byte(i)}, n)
		offs = append(offs, int64(len(data)))
		data = appendFrame(data, &frame{key: k, engine: "test", execNs: uint64(i + 1), body: bodies[k]})
	}
	path = filepath.Join(dir, "seg-00000001.seg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	return path, bodies, offs
}

// checkServes asserts that s holds exactly the given entries, byte for
// byte.
func checkServes(t *testing.T, s *Store, bodies map[string][]byte) {
	t.Helper()
	if st := s.Stats(); st.Entries != len(bodies) {
		t.Fatalf("Entries = %d, want %d", st.Entries, len(bodies))
	}
	for k, want := range bodies {
		got, _, ok := s.Get(k)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Get(%s): ok=%v, %d bytes, want %d", k, ok, len(got), len(want))
		}
	}
}

// uneven returns n body sizes near size that keep frame starts off any
// round offset.
func uneven(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size + 7*i + 3
	}
	return out
}

func TestScanFramesStraddleWindow(t *testing.T) {
	dir := t.TempDir()
	sizes := uneven(40, 100_000) // ~4 MiB: several refills
	_, bodies, offs := writeSegment(t, dir, sizes)
	straddles := 0
	for i, off := range offs {
		end := off + frameSize(5, 4, sizes[i])
		if off/scanWindow != (end-1)/scanWindow {
			straddles++
		}
	}
	if straddles == 0 {
		t.Fatal("test layout has no frame across a window edge")
	}
	s, err := Open(dir, Options{EngineVersion: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkServes(t, s, bodies)
	if st := s.Stats(); st.CorruptFrames != 0 || st.TruncatedBytes != 0 {
		t.Fatalf("clean segment reported damage: %+v", st)
	}
}

func TestScanFrameLargerThanWindow(t *testing.T) {
	dir := t.TempDir()
	_, bodies, _ := writeSegment(t, dir, []int{1000, scanWindow + 12_345, 2000, 3*scanWindow + 1, 500})
	s, err := Open(dir, Options{EngineVersion: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkServes(t, s, bodies)
}

func TestScanTornTailAfterRefill(t *testing.T) {
	dir := t.TempDir()
	sizes := uneven(30, 100_000)
	path, bodies, offs := writeSegment(t, dir, sizes)
	last := len(sizes) - 1
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if offs[last] < scanWindow {
		t.Fatal("test layout: the last frame lies inside the first window")
	}
	// Tear the last frame mid-body.
	if err := os.Truncate(path, fi.Size()-50_000); err != nil {
		t.Fatal(err)
	}
	delete(bodies, fmt.Sprintf("w-%03d", last))
	s, err := Open(dir, Options{EngineVersion: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkServes(t, s, bodies)
	if got, want := s.Stats().TruncatedBytes, uint64(fi.Size()-50_000-offs[last]); got != want {
		t.Fatalf("TruncatedBytes = %d, want %d", got, want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != offs[last] {
		t.Fatalf("segment not truncated to the torn frame's start %d: %v %v", offs[last], fi.Size(), err)
	}
}

// allocDuring returns the bytes the process allocated while f ran.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestScanOverclaimingHeaderTruncatedWithoutAlloc(t *testing.T) {
	dir := t.TempDir()
	path, bodies, _ := writeSegment(t, dir, uneven(3, 1000))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible header whose body length (maxBodyLen) runs far past the
	// end of the file, followed by a few bytes of "body".
	var h [headerLen + 64]byte
	binary.LittleEndian.PutUint32(h[0:], frameMagic)
	binary.LittleEndian.PutUint16(h[4:], 8)
	binary.LittleEndian.PutUint16(h[6:], 1)
	binary.LittleEndian.PutUint32(h[8:], maxBodyLen)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(h[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var s *Store
	alloc := allocDuring(func() { s, err = Open(dir, Options{EngineVersion: "test"}) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkServes(t, s, bodies)
	if got := s.Stats().TruncatedBytes; got != uint64(len(h)) {
		t.Fatalf("TruncatedBytes = %d, want %d", got, len(h))
	}
	if cur, _ := os.Stat(path); cur.Size() != fi.Size() {
		t.Fatalf("segment size %d after scan, want %d", cur.Size(), fi.Size())
	}
	if alloc > 2<<20 {
		t.Fatalf("Open allocated %d bytes for a header claiming %d", alloc, maxBodyLen)
	}
}

// TestOpenAllocatesUnderWindow pins the point of the windowed scan: an
// ~8 MiB one-segment store opens in well under the segment's size.
func TestOpenAllocatesUnderWindow(t *testing.T) {
	dir := t.TempDir()
	_, bodies, _ := writeSegment(t, dir, uneven(2000, 4096))
	var s *Store
	var err error
	alloc := allocDuring(func() { s, err = Open(dir, Options{EngineVersion: "test"}) })
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkServes(t, s, bodies)
	if alloc >= 2<<20 {
		t.Fatalf("Open of an ~8 MiB store allocated %d bytes, want < 2 MiB", alloc)
	}
}

// BenchmarkOpen boots a store holding one ~8 MiB segment of 4 KiB
// frames; B/op is what the scan allocates.
func BenchmarkOpen(b *testing.B) {
	dir := b.TempDir()
	writeSegment(b, dir, uneven(2000, 4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{EngineVersion: "bench"})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}
