package mpc

import (
	"reflect"
	"testing"
)

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzOp is one scripted outbox call: a record (planeMsg, through SendInts
// or Begin/…/End) or, with reserve set, a Reserve hint to msg.to, or,
// with charge set, a Charge of recs records to msg.to.
type fuzzOp struct {
	msg                planeMsg
	reserve, charge    bool
	recs, ints, floats int
}

// chargedWords is the accounted size of a charge op: a header word per
// record plus its payload words.
func (op fuzzOp) chargedWords() int { return op.recs + op.ints + op.floats }

// fuzzRound decodes one round of traffic on M machines: runs of records that
// share a shape (so columns hold uniform stretches), empty shapes, shape
// changes within a column, Reserve hints, some of which no record follows,
// and charges, some of them empty, before, between and after the written
// records of a column.
func fuzzRound(b *fuzzBytes, M int, serial *int64) []fuzzOp {
	var ops []fuzzOp
	for k := b.next() % 24; k > 0; k-- {
		from, to, kind := b.next()%M, b.next()%M, b.next()%5
		if kind == 4 {
			op := fuzzOp{msg: planeMsg{from: from, to: to}, charge: true, recs: b.next() % 4}
			if op.recs > 0 {
				op.ints, op.floats = b.next()%16, b.next()%8
			}
			ops = append(ops, op)
			continue
		}
		if kind == 3 {
			ops = append(ops, fuzzOp{msg: planeMsg{from: from, to: to}, reserve: true,
				recs: b.next()%6 - 1, ints: b.next() % 16, floats: b.next() % 8})
			continue
		}
		ni, nf, rep := b.next()%4, b.next()%3, 1+b.next()%8
		for r := 0; r < rep; r++ {
			m := planeMsg{from: from, to: to, api: kind}
			for i := 0; i < ni; i++ {
				*serial++
				m.ints = append(m.ints, *serial)
			}
			for i := 0; i < nf; i++ {
				*serial++
				m.floats = append(m.floats, float64(*serial)/4)
			}
			ops = append(ops, fuzzOp{msg: m})
		}
	}
	return ops
}

// sameRecords reports whether got lists the records of want, in order.
// Empty and nil payloads are equal.
func sameRecords(got []Record, want []planeMsg) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		w := want[i]
		if r.From != w.from || len(r.Ints) != len(w.ints) || len(r.Floats) != len(w.floats) {
			return false
		}
		if len(w.ints) > 0 && !reflect.DeepEqual(r.Ints, w.ints) || len(w.floats) > 0 && !reflect.DeepEqual(r.Floats, w.floats) {
			return false
		}
	}
	return true
}

// expandRun checks a run's shape invariants and appends its records to recs.
func expandRun(t *testing.T, run Run, recs []Record) []Record {
	t.Helper()
	if run.N < 1 || len(run.Ints) != run.N*run.IntLen || len(run.Floats) != run.N*run.FloatLen {
		t.Fatalf("run from %d: N=%d shape (%d, %d) with %d ints and %d floats",
			run.From, run.N, run.IntLen, run.FloatLen, len(run.Ints), len(run.Floats))
	}
	for i := 0; i < run.N; i++ {
		recs = append(recs, Record{
			From:   run.From,
			Ints:   run.Ints[i*run.IntLen : (i+1)*run.IntLen],
			Floats: run.Floats[i*run.FloatLen : (i+1)*run.FloatLen],
		})
	}
	return recs
}

// FuzzInboxRuns holds NextRun to Next and the barrier's word count to a
// per-record sum. Over random rounds of SendInts and Begin/…/End with
// mixed and empty shapes, Reserve hints and charges interleaved with them,
// every inbox must yield the scripted written records in (sender, emission
// order) whether it is read by Next, by NextRun, by the two interleaved, or
// by NextRun after a Reset in the middle; runs must be maximal within a
// sender; and Len, Words, the round's trace and Cluster.Metrics must equal
// the sums over the script's records, written and charged.
func FuzzInboxRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 2, 8, 1, 2, 0, 1, 0, 7, 1, 0, 1, 1, 0, 3})
	f.Add([]byte{5, 1, 20, 0, 1, 0, 0, 0, 7, 0, 1, 2, 2, 1, 3, 0, 1, 3, 4, 10, 3, 0, 2, 2, 0, 0, 5, 3, 3, 1, 1, 2, 6, 9})
	f.Add([]byte{2, 2, 12, 1, 0, 1, 1, 2, 2, 1, 1, 3, 2, 3, 1, 0, 3, 4, 5, 2, 1, 0, 0, 0, 1, 7, 0, 1, 0, 2, 0, 3})
	f.Add([]byte{2, 0, 0, 5, 1, 0, 4, 2, 3, 1, 1, 0, 0, 1, 0, 1, 1, 0, 4, 0, 1, 0, 4, 1, 0, 0, 2, 0, 2, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		M := 1 + b.next()%6
		rounds := 1 + b.next()%3
		c, trace := tracedCluster(Config{Machines: M, Workers: 1 + b.next()%2})
		defer c.Close()
		var serial, words, records int64
		maxSpace := 0
		for r := 0; r < rounds; r++ {
			ops := fuzzRound(&b, M, &serial)
			err := c.Round(func(machine int, in *Inbox, out *Outbox) {
				for _, op := range ops {
					switch {
					case op.msg.from != machine:
					case op.reserve:
						out.Reserve(op.msg.to, op.recs, op.ints, op.floats)
					case op.charge:
						out.Charge(op.msg.to, op.recs, op.ints, op.floats)
					default:
						op.msg.emit(out)
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			// The reference: each destination's written records in (sender,
			// emission order), its charged records and words, and every
			// machine's load as received plus sent words.
			want := make([][]planeMsg, M)
			chargedLen, chargedWords := make([]int, M), make([]int, M)
			load := make([]int, M)
			roundWords, roundRecords := 0, 0
			for from := 0; from < M; from++ {
				for _, op := range ops {
					if op.reserve || op.msg.from != from {
						continue
					}
					if op.charge {
						w := op.chargedWords()
						chargedLen[op.msg.to] += op.recs
						chargedWords[op.msg.to] += w
						load[op.msg.to] += w
						load[from] += w
						roundWords += w
						roundRecords += op.recs
						continue
					}
					want[op.msg.to] = append(want[op.msg.to], op.msg)
					load[op.msg.to] += op.msg.words()
					load[from] += op.msg.words()
					roundWords += op.msg.words()
					roundRecords++
				}
			}
			roundMax := 0
			for m := 0; m < M; m++ {
				roundMax = max(roundMax, load[m])
			}
			maxSpace = max(maxSpace, roundMax)
			words += int64(roundWords)
			records += int64(roundRecords)
			stat := trace.rounds[r]
			if stat.Words != int64(roundWords) || stat.Messages != roundRecords || stat.MaxLoad != roundMax {
				t.Fatalf("round %d: trace %+v, want %d words, %d records, max load %d", r, stat, roundWords, roundRecords, roundMax)
			}

			for m := 0; m < M; m++ {
				in := c.Inbox(m)
				w := chargedWords[m]
				for _, msg := range want[m] {
					w += msg.words()
				}
				if n := len(want[m]) + chargedLen[m]; in.Len() != n || in.Words() != w {
					t.Fatalf("round %d inbox %d: Len %d Words %d, want %d and %d", r, m, in.Len(), in.Words(), n, w)
				}

				var next []Record
				for rec, ok := in.Next(); ok; rec, ok = in.Next() {
					next = append(next, rec)
				}
				if !sameRecords(next, want[m]) {
					t.Fatalf("round %d inbox %d: Next yields %v, want %v", r, m, next, want[m])
				}

				in.Reset()
				var runs []Record
				var prev Run
				for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
					if prev.N > 0 && prev.From == run.From && prev.IntLen == run.IntLen && prev.FloatLen == run.FloatLen {
						t.Fatalf("round %d inbox %d: two runs of shape (%d, %d) from %d in a row", r, m, run.IntLen, run.FloatLen, run.From)
					}
					prev = run
					runs = expandRun(t, run, runs)
				}
				if !sameRecords(runs, want[m]) {
					t.Fatalf("round %d inbox %d: NextRun yields %v, want %v", r, m, runs, want[m])
				}

				// Interleaved: the fuzz input picks Next or NextRun per step.
				in.Reset()
				var mixed []Record
				for {
					if b.next()%2 == 0 {
						rec, ok := in.Next()
						if !ok {
							break
						}
						mixed = append(mixed, rec)
					} else {
						run, ok := in.NextRun()
						if !ok {
							break
						}
						mixed = expandRun(t, run, mixed)
					}
				}
				if !sameRecords(mixed, want[m]) {
					t.Fatalf("round %d inbox %d: interleaved reads yield %v, want %v", r, m, mixed, want[m])
				}

				// A Reset in the middle rewinds NextRun's cursor too.
				in.Reset()
				for k := b.next() % (len(want[m]) + 1); k > 0; k-- {
					in.Next()
				}
				in.NextRun()
				in.Reset()
				var again []Record
				for run, ok := in.NextRun(); ok; run, ok = in.NextRun() {
					again = expandRun(t, run, again)
				}
				if !sameRecords(again, want[m]) {
					t.Fatalf("round %d inbox %d: NextRun after a Reset yields %v, want %v", r, m, again, want[m])
				}
			}
			if mt := c.Metrics(); mt.WordsSent != words || mt.Messages != records || mt.MaxSpace != maxSpace {
				t.Fatalf("round %d: metrics %+v, want %d words, %d records, max space %d", r, mt, words, records, maxSpace)
			}
		}
	})
}
