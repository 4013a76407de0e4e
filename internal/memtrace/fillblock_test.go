package memtrace

import (
	"testing"

	"repro/internal/simtime"
	"repro/internal/xrand"
)

// oracleGen is the per-reference generator FillBlock must reproduce: for
// each reference a uniform float draw u in [0, 1) picks the first
// component whose cumulative selection weight exceeds u, by a loop of
// float compares, and a draw past every weight re-touches the last line.
// It lays out regions and draws walk permutations exactly as Generator
// does, from the same rng stream.
type oracleGen struct {
	pat     Pattern
	rng     *xrand.Source
	base    uint64
	cum     []float64
	pos     []int
	perm    [][]int32
	offsets []uint64
	phase   uint64
	elapsed simtime.Duration
	last    uint64
}

func newOracleGen(p Pattern, base, seed uint64) *oracleGen {
	o := &oracleGen{
		pat:  p,
		rng:  xrand.New(seed, 0x7a5e),
		base: base,
		pos:  make([]int, len(p.Components)),
		perm: make([][]int32, len(p.Components)),
		last: base,
	}
	cum := 0.0
	for _, c := range p.Components {
		cum += c.weight(p.Gap)
		o.cum = append(o.cum, cum)
	}
	o.layout()
	return o
}

func (o *oracleGen) layout() {
	o.offsets = o.offsets[:0]
	off := o.phase * uint64(o.pat.LiveFootprint()+1024)
	for i, c := range o.pat.Components {
		o.offsets = append(o.offsets, off)
		off += uint64(c.Lines)
		if c.Permuted {
			p := o.rng.Perm(c.Lines)
			o.perm[i] = make([]int32, c.Lines)
			for j, v := range p {
				o.perm[i][j] = int32(v)
			}
		}
		o.pos[i] = 0
	}
}

func (o *oracleGen) next() uint64 {
	o.elapsed += o.pat.Gap
	if o.pat.PhaseEvery > 0 && o.elapsed >= simtime.Duration(o.phase+1)*o.pat.PhaseEvery {
		o.phase++
		o.layout()
	}
	u := o.rng.Float64()
	for k, cum := range o.cum {
		if u < cum {
			c := o.pat.Components[k]
			idx := o.pos[k]
			o.pos[k] = (idx + 1) % c.Lines
			line := idx
			if c.Permuted {
				line = int(o.perm[k][idx])
			}
			o.last = o.base + (o.offsets[k]+uint64(line))*LineBytes
			break
		}
	}
	return o.last
}

// oracleStream is the oracle's stream, generated on demand.
type oracleStream struct {
	o    *oracleGen
	refs []uint64
}

// at returns the stream's references [from, from+n).
func (s *oracleStream) at(from, n int) []uint64 {
	for len(s.refs) < from+n {
		s.refs = append(s.refs, s.o.next())
	}
	return s.refs[from : from+n]
}

// checkBlocks drives g through ops and checks every block it fills against
// the oracle stream of the same pattern, base and seed. Each op byte
// selects, by its low two bits, a FillBlock of 1 to 64 references (two
// of the four codes), a Save, or a Restore of the last Save. A Restore
// with nothing saved instead clones the generator, advances the original
// by a block (checked too) and continues on the clone. g must stand at
// reference Emitted() of that stream.
func checkBlocks(t *testing.T, g *Generator, want *oracleStream, ops []byte) {
	t.Helper()
	var mark Mark
	pos, saved := int(g.Emitted()), -1
	buf := make([]uint64, 64)
	fill := func(g *Generator, n int) {
		t.Helper()
		blk := buf[:n]
		g.FillBlock(blk)
		for i, a := range want.at(pos, n) {
			if blk[i] != a {
				t.Fatalf("reference %d = %#x, oracle %#x", pos+i, blk[i], a)
			}
		}
		pos += n
	}
	for _, op := range ops {
		switch op & 3 {
		case 0, 1:
			fill(g, 1+int(op>>2))
		case 2:
			g.Save(&mark)
			saved = pos
		case 3:
			if saved >= 0 {
				g.Restore(&mark)
				pos = saved
				continue
			}
			c, at := g.Clone(), pos
			fill(g, 1+int(op>>2))
			g, pos = c, at
		}
		if g.Emitted() != uint64(pos) || g.Elapsed() != simtime.Duration(pos)*g.Gap() {
			t.Fatalf("after %d references: Emitted %d, Elapsed %v", pos, g.Emitted(), g.Elapsed())
		}
	}
}

// TestFillBlockMatchesOracle holds FillBlock to the float-compare oracle
// on the built-in patterns, past GRAVITY's first phase change, in blocks
// of 1 to 64 references with saves, restores and a clone between them.
func TestFillBlockMatchesOracle(t *testing.T) {
	rng := xrand.New(11, 0)
	for _, p := range Patterns() {
		ops := make([]byte, 8000)
		for i := range ops {
			ops[i] = byte(rng.Intn(256)) &^ 3 // blocks of 1-64 references
			if rng.Intn(40) == 0 {
				ops[i] |= byte(2 + rng.Intn(2))
			}
		}
		ops[0] = 3 // a clone, before any save
		// A block of nearly the whole first phase, so that the blocks
		// after it cross the phase boundary.
		g := NewGenerator(p, 1<<30, 4)
		want := &oracleStream{o: newOracleGen(p, 1<<30, 4)}
		if p.PhaseEvery > 0 {
			big := make([]uint64, g.RefsFor(p.PhaseEvery)-50)
			g.FillBlock(big)
			for i, a := range want.at(0, len(big)) {
				if big[i] != a {
					t.Fatalf("%s: reference %d = %#x, oracle %#x", p.Name, i, big[i], a)
				}
			}
		}
		checkBlocks(t, g, want, ops)
	}
}

// FuzzFillBlock holds FillBlock to the float-compare oracle on random
// valid patterns — one to six components, sequential or permuted walks,
// selection weights summing to 1 or less, with or without phases, phases
// shorter than the gap included — split into random blocks with saves,
// restores and clones between them.
func FuzzFillBlock(f *testing.F) {
	f.Add(uint64(1), []byte{2, 4, 0, 63, 2, 199, 1, 3}, []byte{4, 8, 2, 255, 3, 0, 1, 252})
	f.Add(uint64(7), []byte{5, 0, 9, 10, 3, 20, 11, 0, 5, 1, 40, 2, 0, 6, 3, 90, 7, 1}, []byte{3, 200, 2, 100, 3, 4, 4, 4})
	f.Add(uint64(42), []byte{0, 7, 1, 0, 0}, []byte{255, 255, 255, 2, 255, 3, 255})
	f.Fuzz(func(t *testing.T, seed uint64, shape, ops []byte) {
		if len(shape) < 2 || len(ops) > 256 {
			return
		}
		p := Pattern{Name: "FUZZ", Gap: simtime.Duration(1 + shape[0]%8)}
		n := 1 + int(shape[1]%6)
		shape = shape[2:]
		for i := 0; i < n; i++ {
			var b [3]byte
			copy(b[:], shape)
			shape = shape[min(3, len(shape)):]
			lines := 1 + int(b[0])
			// Weight lines*gap/period at most 1/n: the weights sum to 1 or
			// less, exactly 1 when every b[2] is 0.
			period := simtime.Duration(lines*n) * p.Gap * simtime.Duration(1+b[2]%4)
			p.Components = append(p.Components, Component{Lines: lines, Period: period, Permuted: b[1]&1 == 1})
		}
		if len(shape) > 0 {
			p.PhaseEvery = simtime.Duration(shape[0] % 64)
		}
		if err := p.Validate(); err != nil {
			t.Skip(err)
		}
		checkBlocks(t, NewGenerator(p, 1<<20, seed), &oracleStream{o: newOracleGen(p, 1<<20, seed)}, ops)
	})
}
