package storage

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		in   Value
		want Value
	}{
		{nil, nil},
		{int(7), int64(7)},
		{int8(-3), int64(-3)},
		{uint32(9), int64(9)},
		{float32(1.5), float64(1.5)},
		{"x", "x"},
		{true, true},
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	ts := time.Date(2026, 7, 6, 12, 0, 0, 123456789, time.FixedZone("X", 3600))
	got := Normalize(ts).(time.Time)
	if got.Location() != time.UTC {
		t.Errorf("Normalize(time) location = %v, want UTC", got.Location())
	}
	if got.Nanosecond()%1000 != 0 {
		t.Errorf("Normalize(time) not truncated to microseconds: %d ns", got.Nanosecond())
	}
}

func TestCheckValue(t *testing.T) {
	if v, err := CheckValue(TypeFloat, int64(3)); err != nil || v != float64(3) {
		t.Errorf("int into float column: got %v, %v", v, err)
	}
	if _, err := CheckValue(TypeInt, "nope"); err == nil {
		t.Error("string into int column should fail")
	}
	if v, err := CheckValue(TypeString, nil); err != nil || v != nil {
		t.Errorf("null should be storable: got %v, %v", v, err)
	}
	if _, err := CheckValue(TypeBool, struct{}{}); err == nil {
		t.Error("unsupported dynamic type should fail")
	}
}

func TestCompareBasics(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{nil, nil, 0},
		{nil, int64(0), -1},
		{int64(0), nil, 1},
		{int64(1), int64(2), -1},
		{int64(2), float64(2), 0},
		{float64(2.5), int64(2), 1},
		{"a", "b", -1},
		{"b", "a", 1},
		{false, true, -1},
		{time.Unix(1, 0), time.Unix(2, 0), -1},
		{[]byte("ab"), []byte("ac"), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: EncodeKey preserves the ordering of Compare for same-typed
// values. Random int64 pairs almost never share a float64, so the second
// property draws b within a small distance of a: beyond ±2^53 those
// pairs collide as floats, and across zero and digit-count boundaries
// they caught the decimal suffix the large-int key used to carry.
func TestEncodeKeyOrderInts(t *testing.T) {
	agrees := func(a, b int64) bool {
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return Compare(a, b) < 0 && ka < kb
		case a > b:
			return Compare(a, b) > 0 && ka > kb
		default:
			return Compare(a, b) == 0 && ka == kb
		}
	}
	if err := quick.Check(agrees, nil); err != nil {
		t.Error(err)
	}
	near := func(a int64, d int16, shift uint8) bool {
		a >>= shift % 12 // also land near 2^53..2^62 and on the negative side
		return agrees(a, a+int64(d))
	}
	if err := quick.Check(near, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	adversarial := [][2]int64{
		{1 << 53, 1<<53 + 1},
		{-9007199254740995, -9007199254740997},
		{-(1 << 53), -(1 << 53) - 1},
		{99999999999999999, 100000000000000001},
		{-99999999999999999, -100000000000000001},
		{math.MaxInt64, math.MaxInt64 - 1},
		{math.MinInt64, math.MinInt64 + 1},
		{1<<62 + 1, 1<<62 - 1},
	}
	for _, p := range adversarial {
		if !agrees(p[0], p[1]) || !agrees(p[1], p[0]) {
			t.Errorf("%d vs %d: Compare %d, keys %x / %x", p[0], p[1], Compare(p[0], p[1]), EncodeKey(p[0]), EncodeKey(p[1]))
		}
	}
}

func TestEncodeKeyOrderFloats(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyOrderStrings(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := EncodeKey(a), EncodeKey(b)
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tuple encodings never collide across component boundaries
// ("ab","c") vs ("a","bc").
func TestEncodeKeyTupleBoundaries(t *testing.T) {
	f := func(a, b, c string) bool {
		left := EncodeKey(a+b, c)
		right := EncodeKey(a, b+c)
		if b == "" {
			return left == right // tuples are componentwise equal
		}
		return left != right
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeKeyNullSortsFirst(t *testing.T) {
	keys := []string{EncodeKey("a"), EncodeKey(nil), EncodeKey(int64(-1 << 62))}
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	if sorted[0] != EncodeKey(nil) {
		t.Error("NULL key should sort first")
	}
}

func TestEncodeKeyMixedTimeOrder(t *testing.T) {
	t1 := time.Date(1969, 1, 1, 0, 0, 0, 0, time.UTC) // negative unix micro
	t2 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	if !(EncodeKey(t1) < EncodeKey(t2)) {
		t.Error("pre-epoch time should encode before post-epoch time")
	}
}

func TestFormatValue(t *testing.T) {
	cases := []struct {
		in   Value
		want string
	}{
		{nil, "NULL"},
		{int64(42), "42"},
		{float64(3), "3.0"},
		{float64(3.25), "3.25"},
		{"hi", "hi"},
		{true, "true"},
		{[]byte{0xAB}, "0xab"},
	}
	for _, c := range cases {
		if got := FormatValue(c.in); got != c.want {
			t.Errorf("FormatValue(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSortRows(t *testing.T) {
	rows := []Row{
		{int64(2), "b"},
		{int64(1), "c"},
		{int64(2), "a"},
	}
	SortRows(rows, []int{0, 1})
	if rows[0][0] != int64(1) || rows[1][1] != "a" || rows[2][1] != "b" {
		t.Errorf("ascending sort wrong: %v", rows)
	}
	SortRows(rows, []int{-1}) // descending on column 0
	if rows[0][0] != int64(2) || rows[2][0] != int64(1) {
		t.Errorf("descending sort wrong: %v", rows)
	}
}

func TestParseType(t *testing.T) {
	for name, want := range map[string]Type{
		"int": TypeInt, "INTEGER": TypeInt, "varchar": TypeString,
		"double": TypeFloat, "boolean": TypeBool, "timestamp": TypeTime,
		"blob": TypeBytes,
	} {
		got, ok := ParseType(name)
		if !ok || got != want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", name, got, ok, want)
		}
	}
	if _, ok := ParseType("frobnicate"); ok {
		t.Error("unknown type accepted")
	}
}

func TestTypeString(t *testing.T) {
	if !strings.Contains(TypeInt.String(), "INT") {
		t.Errorf("TypeInt.String() = %q", TypeInt.String())
	}
	if TypeInvalid.String() != "INVALID" {
		t.Errorf("TypeInvalid.String() = %q", TypeInvalid.String())
	}
}
