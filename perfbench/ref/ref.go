// Package ref holds the benchmark's reference computations: the answers
// each workload's outputs are checked against, computed from the
// generator's own inputs and the rows the watch taps recorded. It imports
// nothing from the engine, so a fault in the engine cannot leak into the
// answer it is checked against.
package ref

import "sort"

// Event is one committed row as a watch tap observed it: topic, commit
// timestamp, per-topic sequence number, and the row's key and id.
type Event struct {
	Topic string
	TS    int64
	Seq   uint64
	Key   string
	ID    int64
}

// less is the canonical order CEP patterns match in: commit timestamp,
// then topic name, then per-topic sequence number.
func less(a, b *Event) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.Topic != b.Topic {
		return a.Topic < b.Topic
	}
	return a.Seq < b.Seq
}

// Match is one completed two-step match: the ids of the first-step and
// the second-step event.
type Match struct {
	First, Second int64
}

// SeqNext is the skip-till-next-match scan for
//
//	match a then b within W; where b.k == a.k;
//
// with a on topic first and b on topic second. Events are taken in
// canonical order. Every first-topic event opens its own partial match,
// which binds the first later second-topic event with the same key whose
// timestamp is at most the opener's plus within (inclusive). Partial
// matches never compete: one second-topic event closes every open partial
// of its key. Events on other topics are ignored. The result is sorted by
// (First, Second).
func SeqNext(evs []Event, first, second string, within int64) []Match {
	sorted := make([]*Event, 0, len(evs))
	for i := range evs {
		if evs[i].Topic == first || evs[i].Topic == second {
			sorted = append(sorted, &evs[i])
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })

	type open struct {
		id       int64
		deadline int64
	}
	// Partials of one key are opened in canonical order, so their
	// deadlines never decrease along the queue.
	pending := make(map[string][]open)
	var out []Match
	for _, ev := range sorted {
		if ev.Topic == second {
			q := pending[ev.Key]
			i := 0
			for i < len(q) && q[i].deadline < ev.TS {
				i++ // expired before this event: dropped unmatched
			}
			for _, p := range q[i:] {
				out = append(out, Match{First: p.id, Second: ev.ID})
			}
			pending[ev.Key] = q[:0]
		}
		if ev.Topic == first {
			pending[ev.Key] = append(pending[ev.Key], open{id: ev.ID, deadline: ev.TS + within})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].Second < out[j].Second
	})
	return out
}

// Digest is an order-independent fingerprint of a multiset of matches:
// their count and the wrapping sums of two independent 64-bit hashes of
// each match. The same matches added in any order give the same Digest;
// a missing, extra, repeated or altered match changes it, unless two
// 64-bit hash sums collide at once. A checker keeps a Digest of a
// stream of outputs instead of the outputs, so its memory does not grow
// with the stream.
type Digest struct {
	N      int64
	H1, H2 uint64
}

// Add folds one match into the digest.
func (d *Digest) Add(m Match) {
	a, b := uint64(m.First), uint64(m.Second)
	d.N++
	d.H1 += mix(mix(a+0x243f6a8885a308d3) ^ b)
	d.H2 += mix(mix(a^0x13198a2e03707344) + b*0xa4093822299f31d1)
}

// DigestOf is the digest of ms.
func DigestOf(ms []Match) Digest {
	var d Digest
	for _, m := range ms {
		d.Add(m)
	}
	return d
}

// mix is the splitmix64 finaliser, a bijection on 64-bit words.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Tally counts the rows per key, the state a per-event counting
// behaviour keeps.
func Tally(keys []string) map[string]int64 {
	out := make(map[string]int64)
	for _, k := range keys {
		out[k]++
	}
	return out
}

// Window is a row-count window aggregate: the sum, size and mean of the
// last n values.
type Window struct {
	Sum  int64
	Size int
	Avg  float64
}

// LastN aggregates the last n of vals (all of them if there are fewer).
// An empty input gives the zero Window.
func LastN(vals []int64, n int) Window {
	if len(vals) > n {
		vals = vals[len(vals)-n:]
	}
	var w Window
	for _, v := range vals {
		w.Sum += v
	}
	w.Size = len(vals)
	if w.Size > 0 {
		w.Avg = float64(w.Sum) / float64(w.Size)
	}
	return w
}

// Row is one keyed write: an upsert of (G, V, ID) under Key.
type Row struct {
	Key string
	G   int64
	V   int64
	ID  int64
}

// LastWrite replays writes in order and keeps the last write per key —
// the state a keyed table holds after them.
func LastWrite(writes []Row) map[string]Row {
	out := make(map[string]Row)
	for _, w := range writes {
		out[w.Key] = w
	}
	return out
}

// Group is one group of a group-by aggregate: row count and value sum.
type Group struct {
	N   int64
	Sum int64
}

// GroupBy aggregates keyed state by G: the count of rows and the sum of V
// in each group.
func GroupBy(state map[string]Row) map[int64]Group {
	out := make(map[int64]Group)
	for _, r := range state {
		g := out[r.G]
		g.N++
		g.Sum += r.V
		out[r.G] = g
	}
	return out
}
