package services

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/odbis/odbis/internal/fault"
	"github.com/odbis/odbis/internal/replica"
	"github.com/odbis/odbis/internal/sql"
)

// attachReplicas wires n replicas into a test platform and waits for the
// fleet to come up. The long probe interval keeps deliberately tripped
// replicas tripped for the duration of a test.
func attachReplicas(t *testing.T, p *Platform, n int, maxLag uint64) *replica.Set {
	t.Helper()
	set := replica.New(p.Registry.Engine(), n, replica.Options{
		MaxLagFrames:  maxLag,
		ProbeInterval: time.Hour,
	})
	t.Cleanup(set.Close)
	p.AttachReplicas(set)
	if !set.CatchUp(5 * time.Second) {
		t.Fatal("replicas never caught up after attach")
	}
	return set
}

func mustQuery(t *testing.T, s *Session, q string) int {
	t.Helper()
	res, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return len(res.Rows)
}

// TestReplicaRoutedReads: SELECTs are served from a caught-up replica
// (the replica read counter advances), writes stay on the primary, and
// the results match what the primary would serve.
func TestReplicaRoutedReads(t *testing.T) {
	p, _ := newPlatform(t)
	ada := designer(t, p)
	if _, err := ada.Query(context.Background(), "CREATE TABLE sales (region TEXT, amount INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("INSERT INTO sales VALUES ('r%d', %d)", i, i*10)
		if _, err := ada.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	set := attachReplicas(t, p, 2, 1024)

	before := mReadsReplica.Value()
	if n := mustQuery(t, ada, "SELECT region, amount FROM sales"); n != 5 {
		t.Fatalf("routed read rows = %d, want 5", n)
	}
	if mReadsReplica.Value() != before+1 {
		t.Fatalf("replica read counter = %d, want %d (read was not routed)", mReadsReplica.Value(), before+1)
	}

	// A write after attach pins the session; once the replica catches up
	// the next read routes again and sees the write.
	if _, err := ada.Query(context.Background(), "INSERT INTO sales VALUES ('r5', 50)"); err != nil {
		t.Fatal(err)
	}
	if !set.CatchUp(5 * time.Second) {
		t.Fatal("replicas never caught up after write")
	}
	before = mReadsReplica.Value()
	if n := mustQuery(t, ada, "SELECT region FROM sales"); n != 6 {
		t.Fatalf("read-after-write rows = %d, want 6", n)
	}
	if mReadsReplica.Value() != before+1 {
		t.Fatal("caught-up read after own write was not routed to a replica")
	}
}

// TestReplicaRoutedReadsServeReplicaRows: a routed read executes on the
// replica's engine through the replica's plan cache, not merely counts
// as routed. The replica is made to differ from the primary by deleting
// a row on its engine directly; the routed read must show the replica's
// state.
func TestReplicaRoutedReadsServeReplicaRows(t *testing.T) {
	p, _ := newPlatform(t)
	ada, vic := designer(t, p), viewer(t, p)
	for _, q := range []string{
		"CREATE TABLE sales (region TEXT, amount INT)",
		"INSERT INTO sales VALUES ('north', 10), ('south', 20), ('west', 30)",
	} {
		if _, err := ada.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	set := attachReplicas(t, p, 1, 1024)
	replicaDB := sql.NewDB(set.PickFor(0))
	if _, err := replicaDB.QueryContext(context.Background(), "DELETE FROM "+ada.Catalog.Physical("sales")+" WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT region FROM sales"
	for i, wantReplicaMisses := range []uint64{1, 0} { // cold on the replica, then cached there
		routed, replicaStats := mReadsReplica.Value(), replicaDB.PlanCacheStats()
		if n := mustQuery(t, vic, q); n != 2 {
			t.Fatalf("read %d: %d rows, want the replica's 2 (the primary has 3)", i, n)
		}
		if mReadsReplica.Value() != routed+1 {
			t.Fatalf("read %d was not counted as routed", i)
		}
		after := replicaDB.PlanCacheStats()
		if after.Misses-replicaStats.Misses != wantReplicaMisses || after.Hits+after.Misses != replicaStats.Hits+replicaStats.Misses+1 {
			t.Errorf("read %d: replica plan cache %+v -> %+v, want exactly one lookup (%d miss)", i, replicaStats, after, wantReplicaMisses)
		}
	}
	// The primary still holds the row the replica lost.
	if res, err := sql.NewDB(p.Registry.Engine()).QueryContext(context.Background(), "SELECT region FROM "+ada.Catalog.Physical("sales")); err != nil || len(res.Rows) != 3 {
		t.Fatalf("primary rows = %v, %v; want 3", res, err)
	}
}

// TestReplicaFallbackMidRequest: a replica failure during a routed read
// — injected error, injected panic, or a tripped fleet — falls back to
// the primary within the same request. The caller never sees an error.
func TestReplicaFallbackMidRequest(t *testing.T) {
	defer fault.Reset()
	p, _ := newPlatform(t)
	ada := designer(t, p)
	if _, err := ada.Query(context.Background(), "CREATE TABLE t (x INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ada.Query(context.Background(), "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	attachReplicas(t, p, 1, 1024)

	// Injected replica-read error: silent same-request fallback.
	if err := fault.Arm(fault.ReplicaRead, fault.Behavior{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	beforeP := mReadsPrimary.Value()
	if n := mustQuery(t, ada, "SELECT x FROM t"); n != 1 {
		t.Fatalf("rows under injected read error = %d, want 1", n)
	}
	if mReadsPrimary.Value() != beforeP+1 {
		t.Fatal("fallback read was not counted against the primary")
	}

	// Injected panic mid-read: contained by the router, same fallback.
	if err := fault.Arm(fault.ReplicaRead, fault.Behavior{Mode: fault.ModePanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if n := mustQuery(t, ada, "SELECT x FROM t"); n != 1 {
		t.Fatalf("rows under injected read panic = %d, want 1", n)
	}

	// Apply failures trip the breaker; with the whole fleet tripped every
	// read silently lands on the primary.
	fault.Reset()
	if err := fault.Arm(fault.ReplicaApply, fault.Behavior{Mode: fault.ModeError, Count: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := ada.Query(context.Background(), "INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !p.Replicas.AllTripped() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !p.Replicas.AllTripped() {
		t.Fatal("replica never tripped under persistent apply failure")
	}
	if n := mustQuery(t, ada, "SELECT x FROM t"); n != 2 {
		t.Fatalf("rows with fleet tripped = %d, want 2", n)
	}
}

// TestReadYourWritesConcurrent: under concurrent writes and routed
// reads, a writer always observes its own committed rows — the pin
// forces reads to the primary until a replica has applied past the
// writer's last commit. Run with -race; the reader exercises the routed
// path while the writer mutates.
func TestReadYourWritesConcurrent(t *testing.T) {
	defer fault.Reset()
	p, _ := newPlatform(t)
	ada := designer(t, p)
	if _, err := ada.Query(context.Background(), "CREATE TABLE rw (x INT)"); err != nil {
		t.Fatal(err)
	}
	attachReplicas(t, p, 2, 1024)
	// Slow every apply a little so replicas genuinely lag the writer and
	// the pin (not luck) is what preserves read-your-writes.
	if err := fault.Arm(fault.ReplicaStall, fault.Behavior{Mode: fault.ModeDelay, Delay: time.Millisecond, Count: 1 << 20}); err != nil {
		t.Fatal(err)
	}

	const writes = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		// An independent viewer reads concurrently: results may be stale
		// (no pin — vic never wrote) but must never error.
		defer wg.Done()
		vic := viewer(t, p)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := vic.Query(context.Background(), "SELECT x FROM rw")
			if err != nil {
				t.Errorf("concurrent viewer read: %v", err)
				return
			}
			if len(res.Rows) > writes {
				t.Errorf("viewer saw %d rows, more than ever written", len(res.Rows))
				return
			}
		}
	}()
	for i := 0; i < writes; i++ {
		if _, err := ada.Query(context.Background(), fmt.Sprintf("INSERT INTO rw VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
		res, err := ada.Query(context.Background(), "SELECT x FROM rw")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != i+1 {
			t.Fatalf("writer saw %d rows after %d writes (read-your-writes broken)", len(res.Rows), i+1)
		}
	}
	close(stop)
	wg.Wait()
}
