package storage

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// keyCorpus is the seeded value corpus behind testdata/keys.golden: every
// key shape the engine encodes (NULL, ints up to ±2^53, 0.0, ±Inf, NaN,
// floats, strings and []byte holding 0x00, bools, times, the Go-native
// types Normalize widens) alone and in multi-column tuples. Two values
// key differently from the original EncodeKey on purpose and are left
// out: ints beyond ±2^53 (their suffix was a decimal string that ordered
// wrongly) and -0.0 (it keyed apart from 0.0, which it compares equal
// to).
func keyCorpus() [][]Value {
	const lim = 1 << 53
	var singles []Value
	singles = append(singles, nil)
	for _, i := range []int64{0, 1, -1, 2, -2, 255, 256, -255, -256, 1 << 31, -(1 << 31),
		lim - 1, -(lim - 1), lim, -lim} {
		singles = append(singles, i)
	}
	for _, f := range []float64{0, 1, -1, 0.5, -0.5, 1.5, math.Inf(1), math.Inf(-1),
		math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, lim, -lim, 1e20, -1e20, 2 * lim, -2 * lim} {
		singles = append(singles, f)
	}
	for _, s := range []string{"", "a", "ab", "b", "\x00", "\x00\x00", "a\x00", "a\x00b", "\x00\x01",
		"\x01", "\xff", "\xff\x00", "héllo"} {
		singles = append(singles, s)
	}
	singles = append(singles, true, false)
	for _, tm := range []time.Time{
		time.Unix(0, 0),
		time.Date(1969, 12, 31, 23, 59, 59, 999999000, time.UTC),
		time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2026, 7, 6, 12, 0, 0, 123456789, time.FixedZone("X", 3600)),
	} {
		singles = append(singles, tm)
	}
	singles = append(singles, []byte{}, []byte{0}, []byte{0, 0xff}, []byte("a\x00b"))
	singles = append(singles, int(7), int8(-3), int32(-70000), uint8(200), uint32(1<<31), float32(1.25))

	r := rand.New(rand.NewSource(20261018))
	randBytes := func() []byte {
		b := make([]byte, r.Intn(6))
		for i := range b {
			b[i] = byte(r.Intn(4)) * 0x55 // 0x00, 0x55, 0xaa, 0xff
		}
		return b
	}
	for i := 0; i < 48; i++ {
		singles = append(singles, r.Int63n(2*lim+1)-lim)
		singles = append(singles, r.Int63n(2001)-1000)
		singles = append(singles, r.NormFloat64()*math.Pow(10, float64(r.Intn(30)-10)))
		singles = append(singles, string(randBytes()))
		singles = append(singles, randBytes())
		singles = append(singles, time.Unix(r.Int63n(1<<33)-1<<32, r.Int63n(1e9)))
	}

	corpus := make([][]Value, 0, len(singles)+256)
	corpus = append(corpus, []Value{})
	for _, v := range singles {
		corpus = append(corpus, []Value{v})
	}
	for i := 0; i < 256; i++ {
		tuple := make([]Value, 2+r.Intn(3))
		for j := range tuple {
			tuple[j] = singles[r.Intn(len(singles))]
		}
		corpus = append(corpus, tuple)
	}
	return corpus
}

// describeTuple renders a corpus tuple for the golden file's second column,
// so a mismatch names the values, not only the bytes.
func describeTuple(vals []Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case time.Time:
			parts[i] = fmt.Sprintf("time:%d", x.UnixNano())
		default:
			parts[i] = fmt.Sprintf("%T:%q", v, fmt.Sprint(v))
		}
	}
	return strings.Join(parts, " ")
}
