package sql

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/odbis/odbis/internal/storage"
)

// evalScalar evaluates a SELECT-less scalar expression through the full
// engine path.
func evalScalar(t *testing.T, expr string) storage.Value {
	t.Helper()
	e := storage.MustOpenMemory()
	defer e.Close()
	db := NewDB(e)
	res, err := db.QueryContext(context.Background(), "SELECT "+expr)
	if err != nil {
		t.Fatalf("SELECT %s: %v", expr, err)
	}
	return res.Rows[0][0]
}

func evalScalarErr(t *testing.T, expr string) error {
	t.Helper()
	e := storage.MustOpenMemory()
	defer e.Close()
	_, err := NewDB(e).QueryContext(context.Background(), "SELECT "+expr)
	return err
}

func TestScalarFunctions(t *testing.T) {
	cases := []struct {
		expr string
		want storage.Value
	}{
		{"ABS(-5)", int64(5)},
		{"ABS(-5.5)", 5.5},
		{"ROUND(3.14159, 2)", 3.14},
		{"ROUND(2.5)", 3.0},
		{"CEIL(1.2)", 2.0},
		{"CEILING(1.2)", 2.0},
		{"FLOOR(1.8)", 1.0},
		{"SQRT(9)", 3.0},
		{"POWER(2, 10)", 1024.0},
		{"POW(2, 3)", 8.0},
		{"MOD(10, 3)", int64(1)},
		{"UPPER('abc')", "ABC"},
		{"LOWER('ABC')", "abc"},
		{"LENGTH('héllo')", int64(5)},
		{"LEN('ab')", int64(2)},
		{"TRIM('  x  ')", "x"},
		{"LTRIM('  x  ')", "x  "},
		{"RTRIM('  x  ')", "  x"},
		{"REVERSE('abc')", "cba"},
		{"SUBSTR('hello', 2)", "ello"},
		{"SUBSTR('hello', 2, 3)", "ell"},
		{"SUBSTR('hello', 0)", "hello"},
		{"SUBSTR('hello', 99)", ""},
		{"SUBSTRING('héllo', 2, 1)", "é"},
		{"REPLACE('aXbXc', 'X', '-')", "a-b-c"},
		{"CONCAT('a', 1, 'b')", "a1b"},
		{"COALESCE(NULL, NULL, 7)", int64(7)},
		{"COALESCE(NULL)", nil},
		{"NULLIF(3, 3)", nil},
		{"NULLIF(3, 4)", int64(3)},
		{"IFNULL(NULL, 9)", int64(9)},
		{"IFNULL(1, 9)", int64(1)},
		{"GREATEST(1, 5, 3)", int64(5)},
		{"LEAST('b', 'a', 'c')", "a"},
		{"GREATEST(1, NULL)", nil},
		{"YEAR(CAST('2026-07-06' AS TIMESTAMP))", int64(2026)},
		{"MONTH(CAST('2026-07-06' AS TIMESTAMP))", int64(7)},
		{"DAY(CAST('2026-07-06' AS TIMESTAMP))", int64(6)},
		{"HOUR(CAST('2026-07-06 13:45:09' AS TIMESTAMP))", int64(13)},
		{"MINUTE(CAST('2026-07-06 13:45:09' AS TIMESTAMP))", int64(45)},
		{"FORMAT_TIME('2006-01', CAST('2026-07-06' AS TIMESTAMP))", "2026-07"},
		{"ABS(NULL)", nil},
		{"UPPER(NULL)", nil},
	}
	for _, c := range cases {
		got := evalScalar(t, c.expr)
		if !storage.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("%s = %v (%T), want %v", c.expr, got, got, c.want)
		}
	}
}

func TestDateTrunc(t *testing.T) {
	cases := map[string]string{
		"year":    "2026-01-01T00:00:00Z",
		"quarter": "2026-07-01T00:00:00Z",
		"month":   "2026-08-01T00:00:00Z",
		"day":     "2026-08-15T00:00:00Z",
		"hour":    "2026-08-15T13:00:00Z",
	}
	for unit, want := range cases {
		got := evalScalar(t, "DATE_TRUNC('"+unit+"', CAST('2026-08-15 13:45:09' AS TIMESTAMP))")
		ts, ok := got.(time.Time)
		if !ok || ts.Format(time.RFC3339) != want {
			t.Errorf("DATE_TRUNC %s = %v, want %s", unit, got, want)
		}
	}
	// Week truncation lands on a Monday.
	got := evalScalar(t, "DATE_TRUNC('week', CAST('2026-08-15' AS TIMESTAMP))").(time.Time)
	if got.Weekday() != time.Monday || got.After(time.Date(2026, 8, 15, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("week trunc = %v", got)
	}
}

func TestScalarFunctionErrors(t *testing.T) {
	bad := []string{
		"NO_SUCH_FUNC(1)",
		"ABS('x')",
		"ABS(1, 2)",
		"SQRT(-1)",
		"ROUND('x')",
		"ROUND(1.5, 'x')",
		"MOD(1, 0)",
		"UPPER(1)",
		"SUBSTR(1, 2)",
		"SUBSTR('x', 'y')",
		"SUBSTR('x', 1, -1)",
		"REPLACE('a', 'b')",
		"YEAR('not a time')",
		"DATE_TRUNC('eon', NOW())",
		"DATE_TRUNC(1, NOW())",
		"NULLIF(1)",
		"GREATEST()",
	}
	for _, expr := range bad {
		if err := evalScalarErr(t, expr); err == nil {
			t.Errorf("SELECT %s should fail", expr)
		}
	}
}

func TestNowIsUTC(t *testing.T) {
	got := evalScalar(t, "NOW()")
	ts, ok := got.(time.Time)
	if !ok {
		t.Fatalf("NOW() = %T", got)
	}
	if ts.Location() != time.UTC {
		t.Errorf("NOW() location = %v", ts.Location())
	}
	if d := time.Since(ts); d < 0 || d > time.Minute {
		t.Errorf("NOW() drift = %v", d)
	}
}

func TestCastMatrix(t *testing.T) {
	cases := []struct {
		expr string
		want storage.Value
	}{
		{"CAST('42' AS INT)", int64(42)},
		{"CAST(3.9 AS INT)", int64(3)},
		{"CAST(TRUE AS INT)", int64(1)},
		{"CAST('2.5' AS FLOAT)", 2.5},
		{"CAST(2 AS FLOAT)", 2.0},
		{"CAST(42 AS TEXT)", "42"},
		{"CAST(TRUE AS TEXT)", "true"},
		{"CAST('yes' AS BOOL)", true},
		{"CAST('0' AS BOOL)", false},
		{"CAST(5 AS BOOL)", true},
		{"CAST(NULL AS INT)", nil},
	}
	for _, c := range cases {
		got := evalScalar(t, c.expr)
		if !storage.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
	for _, bad := range []string{
		"CAST('nope' AS INT)",
		"CAST('nope' AS FLOAT)",
		"CAST('perhaps' AS BOOL)",
		"CAST('yesterday' AS TIMESTAMP)",
	} {
		if err := evalScalarErr(t, bad); err == nil {
			t.Errorf("%s should fail", bad)
		}
	}
	// Time casts.
	ts := evalScalar(t, "CAST('2026-07-06T10:00:00Z' AS TIMESTAMP)").(time.Time)
	if ts.Year() != 2026 {
		t.Errorf("rfc3339 cast = %v", ts)
	}
	unix := evalScalar(t, "CAST(86400 AS TIMESTAMP)").(time.Time)
	if unix.Format("2006-01-02") != "1970-01-02" {
		t.Errorf("unix cast = %v", unix)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	cases := []struct {
		expr string
		want storage.Value
	}{
		{"TRUE AND NULL", nil},
		{"FALSE AND NULL", false},
		{"NULL AND NULL", nil},
		{"TRUE OR NULL", true},
		{"FALSE OR NULL", nil},
		{"NOT NULL", nil},
		{"NULL = NULL", nil},
		{"NULL + 1", nil},
		{"NULL || 'x'", nil},
		{"1 = 1 AND 2 = 2", true},
		{"1 = 2 OR 2 = 2", true},
	}
	for _, c := range cases {
		got := evalScalar(t, c.expr)
		if !storage.Equal(got, c.want) || (got == nil) != (c.want == nil) {
			t.Errorf("%s = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestLikeUnicodeAndCase(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"héllo", "h_llo", true},
		{"héllo", "H%", true}, // case-insensitive
		{"abc", "abc%", true},
		{"abc", "%c", true},
		{"abc", "_", false},
		{"", "%", true},
		{"", "_", false},
		{"a%b", "a%b", true}, // %% literal-ish via wildcard
	}
	for _, c := range cases {
		expr := "'" + c.s + "' LIKE '" + c.p + "'"
		got := evalScalar(t, expr)
		if got != c.want {
			t.Errorf("%s = %v, want %v", expr, got, c.want)
		}
	}
}

func TestArithmeticEdges(t *testing.T) {
	if got := evalScalar(t, "7 / 2"); got != int64(3) {
		t.Errorf("int division = %v", got)
	}
	if got := evalScalar(t, "7.0 / 2"); got != 3.5 {
		t.Errorf("float division = %v", got)
	}
	if got := evalScalar(t, "7 % 3"); got != int64(1) {
		t.Errorf("int mod = %v", got)
	}
	if got := evalScalar(t, "7.5 % 2"); got != 1.5 {
		t.Errorf("float mod = %v", got)
	}
	if err := evalScalarErr(t, "1 / 0"); err == nil || !strings.Contains(err.Error(), "division") {
		t.Errorf("div by zero: %v", err)
	}
	if err := evalScalarErr(t, "1.0 % 0"); err == nil {
		t.Error("float mod by zero accepted")
	}
	if err := evalScalarErr(t, "'a' + 1"); err == nil {
		t.Error("string arithmetic accepted")
	}
	if err := evalScalarErr(t, "-'a'"); err == nil {
		t.Error("string negation accepted")
	}
	if got := evalScalar(t, "-(-3)"); got != int64(3) {
		t.Errorf("double negation = %v", got)
	}
	if got := evalScalar(t, "+5"); got != int64(5) {
		t.Errorf("unary plus = %v", got)
	}
}

func TestCaseOperandForm(t *testing.T) {
	got := evalScalar(t, "CASE 2 WHEN 1 THEN 'one' WHEN 2 THEN 'two' ELSE 'many' END")
	if got != "two" {
		t.Errorf("case operand = %v", got)
	}
	got = evalScalar(t, "CASE 9 WHEN 1 THEN 'one' END")
	if got != nil {
		t.Errorf("case fallthrough = %v", got)
	}
	got = evalScalar(t, "CASE NULL WHEN NULL THEN 'matched' ELSE 'not' END")
	if got != "not" { // NULL never equals NULL
		t.Errorf("case null operand = %v", got)
	}
}

func TestConcatOperator(t *testing.T) {
	if got := evalScalar(t, "'a' || 'b' || 'c'"); got != "abc" {
		t.Errorf("|| = %v", got)
	}
	if got := evalScalar(t, "'n=' || 5"); got != "n=5" {
		t.Errorf("mixed || = %v", got)
	}
}
