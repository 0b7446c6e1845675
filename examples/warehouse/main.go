// Warehouse: maintaining a temporal view over a non-temporal source —
// the application that motivated TIP (the authors built it for their
// temporal data-warehousing work, refs [9,10] of the paper).
//
// The source is an ordinary, non-temporal assignment table that only
// knows the present: (employee, dept). The maintainer (tvm.go) turns its
// change stream into a history view whose `valid` Element records, for
// every (employee, dept) spell, exactly when the source held it — open
// rows end at NOW, so the current assignment's history keeps growing
// without further maintenance.
package main

import (
	"fmt"
	"log"

	"tip"
	"tip/internal/exec"
	"tip/internal/temporal"
	"tip/internal/types"
)

func main() {
	db := tip.Open()
	db.SetClock(tip.MustChronon(1999, 12, 31, 0, 0, 0))
	s := db.Session()

	m, err := NewMaintainer(s.Raw(), db.Blade(), "AssignmentHistory",
		[]string{"employee VARCHAR(20)"}, []string{"dept VARCHAR(20)"})
	if err != nil {
		log.Fatal(err)
	}

	// Replay a year of source changes (each is a plain UPDATE in the
	// source system; the maintainer turns them into history).
	day := func(mo, d int) temporal.Chronon { return tip.MustChronon(1999, mo, d, 0, 0, 0) }
	set := func(t temporal.Chronon, emp, dept string) {
		if err := m.Set(t, []types.Value{types.NewString(emp)},
			[]types.Value{types.NewString(dept)}); err != nil {
			log.Fatal(err)
		}
	}
	set(day(1, 1), "ada", "engineering")
	set(day(1, 1), "grace", "engineering")
	set(day(2, 15), "alan", "research")
	set(day(4, 1), "ada", "research")    // ada moves
	set(day(6, 1), "grace", "sales")     // grace moves
	set(day(9, 1), "ada", "engineering") // ada moves back
	set(day(11, 1), "alan", "sales")     // alan moves
	if err := m.Validate(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("-- the maintained temporal view --")
	print(s, `SELECT employee, dept, valid FROM AssignmentHistory ORDER BY employee, start(valid)`)

	fmt.Println("\n-- who was in engineering on 1999-05-01? (AsOf) --")
	res, err := m.AsOf(day(5, 1))
	if err != nil {
		log.Fatal(err)
	}
	show(res)

	fmt.Println("\n-- ada's full history --")
	res, err = m.History([]types.Value{types.NewString("ada")})
	if err != nil {
		log.Fatal(err)
	}
	show(res)

	fmt.Println("\n-- total tenure per employee (coalesced across moves) --")
	print(s, `SELECT employee, length(group_union(valid)) AS tenure
	          FROM AssignmentHistory GROUP BY employee ORDER BY employee`)

	fmt.Println("\n-- when were ada and grace in the same dept at the same time? --")
	print(s, `SELECT a.dept, intersect(a.valid, b.valid) AS together
	          FROM AssignmentHistory a, AssignmentHistory b
	          WHERE a.employee = 'ada' AND b.employee = 'grace'
	          AND a.dept = b.dept AND overlaps(a.valid, b.valid)`)

	fmt.Println("\n-- the open rows keep growing: same view, asked mid-2000 --")
	s.MustExec(`SET NOW = '2000-06-30'`, nil)
	print(s, `SELECT employee, dept, length(valid) AS so_far FROM AssignmentHistory
	          WHERE contains(valid, now()) ORDER BY employee`)
}

func print(s *tip.Session, q string) {
	res, err := s.Exec(q, nil)
	if err != nil {
		log.Fatal(err)
	}
	show(res)
}

func show(res *exec.Result) { fmt.Print(tip.Format(res)) }
