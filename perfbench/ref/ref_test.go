package ref

import (
	"reflect"
	"testing"
)

func ev(topic string, ts int64, seq uint64, key string, id int64) Event {
	return Event{Topic: topic, TS: ts, Seq: seq, Key: key, ID: id}
}

func TestSeqNextHandTrace(t *testing.T) {
	// Worked by hand, within 10:
	//   A1(x,t=0) A2(y,t=1) A3(x,t=2) B1(y,t=3) B2(x,t=5) B3(x,t=6) A4(x,t=7) B4(x,t=20)
	// A1 and A3 are both open on x when B2 arrives: both close on B2
	// (partials never compete). B3 closes nothing. A2 closes on B1.
	// A4 opens at 7 with deadline 17; B4 at 20 is too late.
	evs := []Event{
		ev("B", 20, 4, "x", 4),
		ev("A", 0, 1, "x", 1),
		ev("A", 1, 2, "y", 2),
		ev("A", 2, 3, "x", 3),
		ev("B", 3, 1, "y", 1),
		ev("B", 5, 2, "x", 2),
		ev("B", 6, 3, "x", 3),
		ev("A", 7, 4, "x", 4),
		ev("Other", 4, 1, "x", 99),
	}
	got := SeqNext(evs, "A", "B", 10)
	want := []Match{{1, 2}, {2, 1}, {3, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSeqNextTiesAndInclusiveDeadline(t *testing.T) {
	// Equal timestamps order by topic name then sequence: A(t=5) sorts
	// before B(t=5), so an A and a B committed at the same instant match.
	// The deadline is inclusive: A at 0 within 10 still matches B at 10.
	evs := []Event{
		ev("A", 0, 1, "k", 1),
		ev("B", 10, 1, "k", 1),
		ev("B", 5, 2, "j", 2), // seq order within topic is irrelevant here
		ev("A", 5, 2, "j", 2),
	}
	got := SeqNext(evs, "A", "B", 10)
	want := []Match{{1, 1}, {2, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	// One past the deadline does not match.
	if got := SeqNext([]Event{ev("A", 0, 1, "k", 1), ev("B", 11, 1, "k", 1)}, "A", "B", 10); len(got) != 0 {
		t.Fatalf("late B matched: %v", got)
	}
}

func TestSeqNextBeforeOpenerDoesNotMatch(t *testing.T) {
	// A B earlier than the A cannot close it, and a topic-order tie where
	// the second topic sorts first ("B" before "C") means the B is earlier.
	evs := []Event{
		ev("B", 1, 1, "k", 1),
		ev("A", 2, 1, "k", 1),
		ev("C", 3, 1, "k", 7),
		ev("B", 3, 2, "k", 2),
	}
	// Pattern C then B: C at t=3 sorts after B at t=3, so B2 is too early.
	if got := SeqNext(evs, "C", "B", 100); len(got) != 0 {
		t.Fatalf("got %v, want none", got)
	}
	if got, want := SeqNext(evs, "A", "B", 100), []Match{{1, 2}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestDigest(t *testing.T) {
	a := []Match{{1, 2}, {3, 4}, {5, 6}}
	if DigestOf(a) != DigestOf([]Match{{5, 6}, {1, 2}, {3, 4}}) {
		t.Fatal("the same matches in another order digest differently")
	}
	for name, other := range map[string][]Match{
		"missing":  {{1, 2}, {3, 4}},
		"extra":    {{1, 2}, {3, 4}, {5, 6}, {7, 8}},
		"repeated": {{1, 2}, {3, 4}, {5, 6}, {5, 6}},
		"altered":  {{1, 2}, {3, 4}, {5, 7}},
		"swapped":  {{2, 1}, {3, 4}, {5, 6}},
		// The same count and the same ids, paired differently.
		"repaired": {{1, 4}, {3, 2}, {5, 6}},
	} {
		if DigestOf(other) == DigestOf(a) {
			t.Errorf("%s match not detected", name)
		}
	}
	var d Digest
	if d != DigestOf(nil) {
		t.Fatal("the empty digest is not the zero Digest")
	}
}

func TestTally(t *testing.T) {
	got := Tally([]string{"a", "b", "a", "c", "a"})
	want := map[string]int64{"a": 3, "b": 1, "c": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestLastN(t *testing.T) {
	// Last 3 of 1..5 are 3,4,5: sum 12, mean 4.
	if got, want := LastN([]int64{1, 2, 3, 4, 5}, 3), (Window{Sum: 12, Size: 3, Avg: 4}); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Fewer values than the window: all of them, 1+2 over 2.
	if got, want := LastN([]int64{1, 2}, 3), (Window{Sum: 3, Size: 2, Avg: 1.5}); got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if got := LastN(nil, 3); got != (Window{}) {
		t.Fatalf("empty window: %+v", got)
	}
}

func TestLastWriteAndGroupBy(t *testing.T) {
	writes := []Row{
		{Key: "a", G: 0, V: 10, ID: 1},
		{Key: "b", G: 1, V: 20, ID: 2},
		{Key: "a", G: 1, V: 30, ID: 3}, // a moves to group 1
		{Key: "c", G: 0, V: 5, ID: 4},
		{Key: "b", G: 1, V: 25, ID: 5},
	}
	state := LastWrite(writes)
	want := map[string]Row{
		"a": {Key: "a", G: 1, V: 30, ID: 3},
		"b": {Key: "b", G: 1, V: 25, ID: 5},
		"c": {Key: "c", G: 0, V: 5, ID: 4},
	}
	if !reflect.DeepEqual(state, want) {
		t.Fatalf("state %v, want %v", state, want)
	}
	// Group 0: c=5 → n 1, sum 5. Group 1: a=30, b=25 → n 2, sum 55.
	groups := GroupBy(state)
	wantG := map[int64]Group{0: {N: 1, Sum: 5}, 1: {N: 2, Sum: 55}}
	if !reflect.DeepEqual(groups, wantG) {
		t.Fatalf("groups %v, want %v", groups, wantG)
	}
}
