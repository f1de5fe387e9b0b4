package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"testing"
	"time"
)

// TestKeyGolden: EncodeKey and AppendKey reproduce, byte for byte, what
// the original strings.Builder EncodeKey wrote for keyCorpus
// (testdata/keys.golden was written by that implementation and has no
// update flag). B-tree key order and every hash probe depend on this
// identity.
func TestKeyGolden(t *testing.T) {
	f, err := os.Open("testdata/keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	corpus := keyCorpus()
	prefix := []byte("prefix")
	for i, tup := range corpus {
		if !sc.Scan() {
			t.Fatalf("golden has %d lines, corpus %d tuples", i, len(corpus))
		}
		want := sc.Text()
		enc := hex.EncodeToString([]byte(EncodeKey(tup...)))
		if got := enc + "\t" + describeTuple(tup); got != want {
			t.Errorf("tuple %d: EncodeKey line\n got %s\nwant %s", i, got, want)
		}
		if got := hex.EncodeToString(AppendKey(nil, tup...)); got != enc {
			t.Errorf("tuple %d (%s): AppendKey(nil) = %s, EncodeKey = %s", i, describeTuple(tup), got, enc)
		}
		buf := AppendKey(append([]byte(nil), prefix...), tup...)
		if !bytes.HasPrefix(buf, prefix) || hex.EncodeToString(buf[len(prefix):]) != enc {
			t.Errorf("tuple %d: AppendKey onto a prefix = %x", i, buf)
		}
	}
	if sc.Scan() {
		t.Errorf("golden has more lines than the corpus's %d tuples", len(corpus))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// bigIntEdges are ints where float64 rounding collides or the old
// decimal suffix misordered: around ±2^53, ±2^62 and the int64 limits.
func bigIntEdges() []Value {
	var out []Value
	for _, base := range []int64{1 << 53, -(1 << 53), 1 << 54, -(1 << 54), 1 << 62, -(1 << 62), 99999999999999999, -99999999999999999} {
		for d := int64(-5); d <= 5; d++ {
			out = append(out, base+d)
		}
	}
	for d := int64(0); d < 5; d++ {
		out = append(out, int64(math.MaxInt64)-d, int64(math.MinInt64)+d)
	}
	// Floats on and between the same grid points.
	for _, f := range []float64{1 << 53, 1<<53 + 2, -(1 << 53), -(1<<53 + 2), 1 << 62, -(1 << 62), 1 << 63, -(1 << 63), 0.5 + 1<<52, math.Copysign(0, -1)} {
		out = append(out, f)
	}
	return out
}

// checkKeyOrder reports whether the keys of tuples a and b order and
// match the way compareTuples does.
func checkKeyOrder(t *testing.T, a, b []Value) {
	t.Helper()
	for _, v := range append(append([]Value(nil), a...), b...) {
		if f, ok := v.(float64); ok && math.IsNaN(f) {
			return // NaN compares equal to every number; its key cannot
		}
	}
	want := compareTuples(a, b)
	got := bytes.Compare(AppendKey(nil, a...), AppendKey(nil, b...))
	if got != want {
		t.Errorf("Compare(%s ; %s) = %d but the keys compare %d", describeTuple(a), describeTuple(b), want, got)
	}
}

// compareTuples orders tuples component by component under Compare; a
// proper prefix sorts first.
func compareTuples(a, b []Value) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// TestKeyOrderCorpus checks every pair of corpus and edge values, alone
// and as the first column of a two-column tuple.
func TestKeyOrderCorpus(t *testing.T) {
	var singles []Value
	for _, tup := range keyCorpus() {
		if len(tup) == 1 {
			singles = append(singles, tup[0])
		}
	}
	singles = append(singles, bigIntEdges()...)
	for _, a := range singles {
		for _, b := range singles {
			checkKeyOrder(t, []Value{a}, []Value{b})
			checkKeyOrder(t, []Value{a, "x"}, []Value{b, int64(0)})
		}
	}
}

func TestCompareExactBeyond2to53(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1 << 53), int64(1<<53 + 1), -1},
		{int64(-(1 << 53) - 1), int64(-(1 << 53)), -1},
		{int64(1<<53 + 1), float64(1 << 53), 1},
		{float64(1 << 53), int64(1<<53 + 1), -1},
		{int64(1<<53 + 2), float64(1<<53 + 2), 0},
		{int64(math.MaxInt64), float64(1 << 63), -1},
		{int64(math.MinInt64), float64(-(1 << 63)), 0},
		{int64(math.MinInt64), math.Inf(-1), 1},
		{int64(3), 3.5, -1},
		{int64(-3), -3.5, 1},
		{int64(0), math.Copysign(0, -1), 0},
		{int64(1), math.NaN(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// FuzzKeyOrder: for two tuples decoded from the input, the sign of
// Compare (component by component) is the sign of bytes.Compare of their
// keys, so keys are equal iff the tuples compare equal. NaN is skipped.
func FuzzKeyOrder(f *testing.F) {
	edges := bigIntEdges()
	for i := 0; i+1 < len(edges); i++ {
		f.Add(fuzzTuple(edges[i]), fuzzTuple(edges[i+1]))
	}
	f.Add(fuzzTuple("a\x00", int64(1)), fuzzTuple("a", int64(2)))
	f.Add(fuzzTuple(nil, true), fuzzTuple(false, []byte{0}))
	f.Add(fuzzTuple(time.UnixMicro(-1), 1.5), fuzzTuple(time.UnixMicro(0), int64(1)))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkKeyOrder(t, decodeFuzzTuple(a), decodeFuzzTuple(b))
	})
}

// decodeFuzzTuple reads a tuple from fuzz bytes: a tag byte per value
// (mod 7), then its payload; a short payload ends the tuple.
func decodeFuzzTuple(p []byte) []Value {
	var out []Value
	u64 := func() (uint64, bool) {
		if len(p) < 8 {
			return 0, false
		}
		u := binary.BigEndian.Uint64(p)
		p = p[8:]
		return u, true
	}
	str := func() (string, bool) {
		if len(p) < 1 || len(p)-1 < int(p[0]) {
			return "", false
		}
		n := int(p[0])
		s := string(p[1 : 1+n])
		p = p[1+n:]
		return s, true
	}
	for len(p) > 0 && len(out) < 8 {
		tag := p[0] % 7
		p = p[1:]
		var v Value
		switch tag {
		case 0:
			v = nil
		case 1, 2, 5:
			u, ok := u64()
			if !ok {
				return out
			}
			switch tag {
			case 1:
				v = int64(u)
			case 2:
				v = math.Float64frombits(u)
			default:
				v = time.UnixMicro(int64(u)).UTC()
			}
		case 3, 6:
			s, ok := str()
			if !ok {
				return out
			}
			if tag == 3 {
				v = s
			} else {
				v = []byte(s)
			}
		case 4:
			if len(p) < 1 {
				return out
			}
			v = p[0]&1 == 1
			p = p[1:]
		}
		out = append(out, v)
	}
	return out
}

// fuzzTuple is decodeFuzzTuple's inverse, for seeds.
func fuzzTuple(vals ...Value) []byte {
	var p []byte
	for _, v := range vals {
		switch x := v.(type) {
		case nil:
			p = append(p, 0)
		case int64:
			p = binary.BigEndian.AppendUint64(append(p, 1), uint64(x))
		case float64:
			p = binary.BigEndian.AppendUint64(append(p, 2), math.Float64bits(x))
		case string:
			p = append(append(p, 3, byte(len(x))), x...)
		case bool:
			b := byte(0)
			if x {
				b = 1
			}
			p = append(p, 4, b)
		case time.Time:
			p = binary.BigEndian.AppendUint64(append(p, 5), uint64(x.UnixMicro()))
		case []byte:
			p = append(append(p, 6, byte(len(x))), x...)
		}
	}
	return p
}
