package sim

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestProcsStayBoundedByLive spawns 10,000 short processes, never more
// than four alive at once: the registry must track the live processes,
// not every process ever spawned.
func TestProcsStayBoundedByLive(t *testing.T) {
	s := New()
	longest := 0
	s.Spawn("spawner", func(p *Process) {
		for i := 0; i < 10000; i++ {
			s.Spawn(fmt.Sprintf("w%d", i), func(q *Process) { q.Hold(3) })
			p.Hold(1)
			longest = max(longest, len(s.procs))
		}
	})
	s.Run()
	if bound := 2*5 + 64; longest > bound {
		t.Fatalf("registry reached %d processes with at most 5 live (bound %d)", longest, bound)
	}
}

// TestDeadlockReportGolden pins the full deadlock report of a run that
// spawns and ends many processes before three of them block: dropping
// ended processes from the registry must not change a byte of it.
func TestDeadlockReportGolden(t *testing.T) {
	s := New()
	a := NewFacility(s, "A")
	b := NewFacility(s, "B")
	mb := NewMailbox(s)
	for i := 0; i < 500; i++ {
		s.SpawnAt(Time(i), fmt.Sprintf("short%d", i), func(p *Process) {
			a.Reserve(p)
			p.Hold(1)
			a.Release(p)
		})
	}
	s.SpawnAt(1000, "p1", func(p *Process) {
		a.Reserve(p)
		p.Hold(10)
		b.Reserve(p)
	})
	s.SpawnAt(1000, "p2", func(p *Process) {
		b.Reserve(p)
		p.Hold(10)
		a.Reserve(p)
	})
	s.SpawnAt(1005, "reader", func(p *Process) { mb.Get(p) })
	s.SpawnAt(1010, "queued", func(p *Process) { a.Reserve(p) })
	s.AddDiagnostic("facilities", func() string {
		return fmt.Sprintf("    A busy=%t queue=%d\n    B busy=%t queue=%d", a.Busy(), a.QueueLen(), b.Busy(), b.QueueLen())
	})
	err := s.RunChecked()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	got := de.Error() + "\n"
	path := filepath.Join("testdata", "deadlock_report.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("deadlock report differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
