// Package format is the hotalloc fixture's cross-package half: nothing
// here is an entry point, but sql.DB.Exec reaches RenderRows, so its
// loops are hot with a cross-package witness chain.
package format

import "strings"

// RenderRows concatenates in a hot loop — both the += accumulator and
// the un-preallocated append are flagged with the witness naming the
// sql entry point.
func RenderRows(names []string) string {
	s := ""
	var quoted []string
	for _, n := range names {
		s += n                             // want `string \+= in this hot loop reallocates and copies the accumulator each iteration; use strings\.Builder \(reachable from sql\.DB\.Prepare via format\.RenderRows\)`
		quoted = append(quoted, "'"+n+"'") // want `append to quoted in this hot loop grows the backing array geometrically`
		_ = map[string]bool{"a": true}     // want `loop-invariant composite literal allocates on every iteration of this hot loop`
		per := []string{n}                 // depends on the loop variable: no finding
		_ = per
	}
	return s + strings.Join(quoted, ",")
}

// RenderJoined builds with the sanctioned tools: no findings.
func RenderJoined(names []string) string {
	var b strings.Builder
	quoted := make([]string, 0, len(names))
	for _, n := range names {
		b.WriteString(n)
		quoted = append(quoted, n) // capacity preallocated above: quiet
	}
	return b.String() + strings.Join(quoted, ",")
}

// Classify flags the loop-invariant closure but not the one that
// captures the iteration variable.
func Classify(names []string, keep func(string) bool) int {
	count := 0
	for _, n := range names {
		f := func(s string) bool { return keep(s) } // want `loop-invariant closure allocates on every iteration of this hot loop`
		g := func() string { return n }             // captures n: rebuilt by necessity, no finding
		if f(n) && g() != "" {
			count++
		}
	}
	return count
}

// Amortized shows the suppression escape hatch.
func Amortized(names []string) []string {
	var out []string
	for _, n := range names {
		out = append(out, n) //odbis:ignore hotalloc -- fixture: bounded tail growth measured cheaper than len scan
	}
	return out
}
