package mpc

// This file implements the columnar message plane: the physical
// representation of message traffic. Logical messages (records) are written
// into flat per-destination word buffers instead of individual Message
// structs, so the steady-state cost of a record is a few appends into
// reused buffers — zero allocations per message.
//
// Physical layout. Each (sender, destination) pair that exchanges traffic
// in a round owns one *column*: an []int64 buffer, a []float64 buffer, and
// the framing that cuts them into records of (intLen, floatLen) words. A run
// of same-shape records is framed once — a count and the one shape — and
// only a column that mixes shapes carries a per-record index. A record's
// accounted size is 1 header word (the sender) + intLen + floatLen, the
// exact accounting the Message representation used. Nothing is counted on
// the send path: every payload word in a column belongs to a closed record,
// so a column's accounted words are n + len(ints) + len(floats), plus what
// it charged (below), summed once per column after the round's barrier.
//
// Charged records. A record no receiver reads — the driver holds what it
// would say, as the matchings' central machine holds the samples — can be
// charged instead of written (Outbox.Charge): the column counts it, records
// and payload words, but holds none of its words. The model cannot tell:
// traffic, space, Len and Words and the receiver's arming include charged
// records. Only the cursor skips them, since it walks the written records.
// The rule for using it: charge exactly what the paper's algorithm sends,
// and only where no RoundFunc reads it; a round whose receivers read part
// of a column writes that part.
//
// Delivery. After the barrier, each destination's Inbox becomes the ordered
// list of the columns sent to it — senders in machine order — and a cursor
// walks records in (sender, emission order) order, so delivery order,
// metrics, and traces are bit-identical to the per-Message representation.
// The cursor hands out one record at a time (Next) or a maximal stretch of
// same-shape records as one slice (NextRun).
//
// Pooling. A column travels outbox → inbox → back, and the columns backing
// a round's inboxes are released when the round that consumed them ends,
// which is why Records are views that must not be retained across rounds.
// Where a released column goes depends on who sized it. A column Reserve
// sized belongs to the reserving outbox and comes back to it, so the next
// Reserve finds its capacity there; at Cluster.Close those columns pass to
// the next cluster's reservations. Every other column goes to a sync.Pool.
// Within a cluster, a reserved column therefore never serves a one-word
// fan-out, which would leave its capacity spread across the pool.
//
// Growth. A column no Reserve sized grows as it is written, and one the pool
// hands out after a collection starts empty. Whenever a column's payload or
// framing index has to grow, its capacity at least doubles (grow), so the
// buffers a column allocates on the way up sum to about twice its final
// words. append alone grows a large slice by about a quarter at a time,
// which sums to about five times.

import (
	"fmt"
	"slices"
	"sync"
)

// Record is one delivered logical message: the sender and the payload
// words. Ints and Floats are views into the round's column buffers — valid
// only until the end of the round that delivered them, and must not be
// modified or retained.
type Record struct {
	From   int
	Ints   []int64
	Floats []float64
}

// Words returns the accounted size of the record in words: one header word
// (the sender) plus one word per int and float.
func (r Record) Words() int { return 1 + len(r.Ints) + len(r.Floats) }

// Run is a stretch of N consecutive records from one sender that share one
// shape: IntLen int words and FloatLen float words each. Ints and Floats
// hold the N records back to back, so record i's payload is
// Ints[i*IntLen:(i+1)*IntLen] and Floats[i*FloatLen:(i+1)*FloatLen]. Like a
// Record's, the slices are views valid only until the end of the round that
// delivered them, and must not be modified or retained.
type Run struct {
	From     int
	N        int
	IntLen   int
	FloatLen int
	Ints     []int64
	Floats   []float64
}

// recMeta frames one record inside a column.
type recMeta struct{ intLen, floatLen int32 }

// column holds every record one machine sent to one destination in one
// round: flat payload buffers plus their framing. The framing has two
// states. A column is uniform while all n of its records have the same
// shape: recs is empty and shape frames every record, so a one-word fan-out
// streams payload words and nothing else. The first record of another shape
// makes it framed — recs is materialised as n copies of shape and from then
// on holds one entry per record (len(recs) == n). The transition is one-way
// until reset.
type column struct {
	ints     []int64
	floats   []float64
	n        int       // written records
	shape    recMeta   // shape of every record while recs is empty
	recs     []recMeta // per-record framing index, empty while uniform
	owner    *Outbox   // the outbox whose Reserve sized the column, nil if none did
	charged  int       // charged records: counted as sent, never written
	chargedW int       // payload words of the charged records
}

func (c *column) reset() {
	c.ints, c.floats, c.recs = c.ints[:0], c.floats[:0], c.recs[:0]
	c.n, c.shape, c.owner = 0, recMeta{}, nil
	c.charged, c.chargedW = 0, 0
}

// records returns the column's sent records, written and charged.
func (c *column) records() int { return c.n + c.charged }

// accounted returns the column's accounted words: one header word per record
// plus every payload word, written or charged. It is exact only with no
// record open, so only the post-barrier merge reads it.
func (c *column) accounted() int {
	return c.records() + len(c.ints) + len(c.floats) + c.chargedW
}

// frame appends one record of shape m to the framing. It is the only place
// that advances n; payload words are the caller's.
// The fast path — one more record of the uniform shape — is a compare and an
// increment, small enough to inline into the send paths.
func (c *column) frame(m recMeta) {
	if m != c.shape || len(c.recs) != 0 {
		c.index(m)
	}
	c.n++
}

// index is frame's slow path, kept out of line: the first record of a column
// sets its shape; the first record of another shape materialises the
// per-record index, which every later record then extends.
//
//go:noinline
func (c *column) index(m recMeta) {
	if len(c.recs) == 0 {
		if c.n == 0 {
			c.shape = m
			return
		}
		c.recs = grow(c.recs, c.n+1)
		for i := 0; i < c.n; i++ {
			c.recs = append(c.recs, c.shape)
		}
	}
	c.recs = append(grow(c.recs, 1), m)
}

// meta returns the shape of record i.
func (c *column) meta(i int) recMeta {
	if len(c.recs) == 0 {
		return c.shape
	}
	return c.recs[i]
}

// grow returns s with room for need more elements. If s has to grow, it asks
// append for max(len(s)+need, 2·cap(s)) elements, so every growth of a column
// buffer at least doubles its capacity (append rounds it up to a size
// class). It is small enough to inline into Int and Float.
func grow[E any](s []E, need int) []E {
	if cap(s)-len(s) >= need {
		return s
	}
	return append(s[:cap(s)], make([]E, max(len(s)+need-cap(s), cap(s)))...)[:len(s)]
}

// columnPool recycles the columns no Reserve sized across rounds (and
// clusters). Get/Put are concurrency-safe, so outboxes may acquire columns
// from inside a parallel round.
var columnPool = sync.Pool{New: func() any { return new(column) }}

func getColumn() *column { return columnPool.Get().(*column) }

func putColumn(c *column) {
	c.reset()
	columnPool.Put(c)
}

// release takes back a column its inbox has consumed, or a spare no record
// claimed: a column Reserve sized returns, reset, to the outbox that
// reserved it, any other to the pool. It runs after the round's barrier.
func release(c *column) {
	o := c.owner
	if o == nil {
		putColumn(c)
		return
	}
	c.reset()
	o.kept = append(o.kept, c)
}

// handoff holds the columns the outboxes of the last closed cluster had
// reserved, for the reservations of the clusters that follow.
var handoff struct {
	sync.Mutex
	cols []*column
}

// handOff passes the columns the outboxes keep to the hand-off set. The set
// it replaces goes to the pool, so reserved capacity still reaches unhinted
// sends, one cluster later.
func handOff(outboxes []Outbox) {
	var cols []*column
	for i := range outboxes {
		cols = append(cols, outboxes[i].kept...)
		outboxes[i].kept = nil
	}
	handoff.Lock()
	cols, handoff.cols = handoff.cols, cols
	handoff.Unlock()
	for _, c := range cols {
		putColumn(c)
	}
}

// takeFit removes from cols and returns the column that best fits ints
// words: the smallest with room for them, else the largest. It returns nil
// if cols is empty.
func takeFit(cols *[]*column, ints int) *column {
	s := *cols
	if len(s) == 0 {
		return nil
	}
	best := 0
	for i, c := range s[1:] {
		b, k := cap(s[best].ints), cap(c.ints)
		if b >= ints && k >= ints && k < b || b < ints && k > b {
			best = i + 1
		}
	}
	c := s[best]
	last := len(s) - 1
	s[best], s[last] = s[last], nil
	*cols = s[:last]
	return c
}

// Outbox collects the records a machine emits during a round, written into
// per-destination columns so the post-round merge hands whole buffers to
// the inboxes without copying or scanning messages.
//
// The batched append API frames one record as
//
//	out.Begin(to); out.Int(x); out.Ints(xs...); out.Float(f); out.End()
//
// and SendInts frames a whole int payload in one call, without opening a
// record. Payloads are copied into the columns at append time, so callers
// may freely reuse their own buffers after the call (unlike the retired
// Message representation, which retained payload slices). A sender that
// knows its volume up front calls Reserve first, so the column buffers are
// sized once instead of doubling their way up.
type Outbox struct {
	from    int
	cluster *Cluster
	byDest  []*column // lazily allocated, one column per destination with traffic
	dests   []int     // destinations with at least one record, in first-use order
	spare   []*column // lazily allocated: columns sized by Reserve that no record has claimed yet
	spared  []int     // destinations Reserve put a spare column under this round
	kept    []*column // columns this outbox reserved, back from the inboxes that consumed them
	words   int       // accounted words sent this round, summed over dests at the barrier
	count   int       // records sent this round, summed over dests at the barrier
	cur     *column   // column of the open record, nil outside Begin/End
	curInt  int       // len(cur.ints) at Begin
	curFlt  int       // len(cur.floats) at Begin
}

// Reserve sizes the column addressed to machine `to` for recs further
// records carrying ints int words and floats float words in total, so the
// appends that follow never regrow it. It is purely a capacity hint: it
// frames nothing and charges nothing, a reservation no record follows never
// reaches an inbox or the merge, and a non-positive recs is
// a no-op. Like Begin it must not be called with a record open.
//
// The column it sizes belongs to this outbox from then on: once consumed it
// comes back here, never to the pool, and a later Reserve takes the best fit
// of the columns kept before it looks in the hand-off set or the pool.
func (o *Outbox) Reserve(to, recs, ints, floats int) {
	if o.cur != nil {
		panic("mpc: Outbox.Reserve with a record open")
	}
	if to < 0 || to >= o.cluster.cfg.Machines {
		panic(fmt.Sprintf("mpc: reserve for invalid machine %d (M=%d)", to, o.cluster.cfg.Machines))
	}
	if recs <= 0 {
		return
	}
	var col *column
	if o.byDest != nil {
		col = o.byDest[to]
	}
	if col == nil {
		// No record yet: the sized column waits in spare until the first
		// Begin(to) claims it, so it stays invisible if none does.
		if o.spare == nil {
			o.spare = make([]*column, o.cluster.cfg.Machines)
		}
		col = o.spare[to]
		if col == nil {
			col = o.fetch(ints)
			o.spare[to] = col
			o.spared = append(o.spared, to)
		}
	}
	col.owner = o
	if len(col.recs) != 0 {
		// Only a column that already mixes shapes has an index to size.
		col.recs = slices.Grow(col.recs, recs)
	}
	col.ints = slices.Grow(col.ints, max(ints, 0))
	col.floats = slices.Grow(col.floats, max(floats, 0))
}

// fetch finds Reserve a column for ints words: the best fit of the columns
// this outbox keeps, else of the hand-off set, else one from the pool. Only
// the owner's RoundFunc calls it, so kept needs no lock.
func (o *Outbox) fetch(ints int) *column {
	if col := takeFit(&o.kept, ints); col != nil {
		return col
	}
	handoff.Lock()
	col := takeFit(&handoff.cols, ints)
	handoff.Unlock()
	if col != nil {
		return col
	}
	return getColumn()
}

// lookup returns the column addressed to machine `to` if a record can go
// straight into it: no record open, a column already there. It is small
// enough to inline into every way of starting a record; on nil the caller
// goes through claimColumn, which sorts out the rest.
func (o *Outbox) lookup(to int) *column {
	// byDest is nil or Machines long, so the range check is the bounds check.
	if o.cur == nil && uint(to) < uint(len(o.byDest)) {
		return o.byDest[to]
	}
	return nil
}

// claimColumn is lookup's slow path. It panics with a record open or an
// invalid destination; otherwise this is the destination's first record of
// the round and takes the spare column Reserve sized for it, or one from the
// pool.
func (o *Outbox) claimColumn(to int) *column {
	if o.cur != nil {
		panic("mpc: Outbox.Begin, SendInts or Charge with a record already open")
	}
	if to < 0 || to >= o.cluster.cfg.Machines {
		panic(fmt.Sprintf("mpc: send to invalid machine %d (M=%d)", to, o.cluster.cfg.Machines))
	}
	if o.byDest == nil {
		o.byDest = make([]*column, o.cluster.cfg.Machines)
	}
	var col *column
	if o.spare != nil && o.spare[to] != nil {
		col, o.spare[to] = o.spare[to], nil
	} else {
		col = getColumn()
	}
	o.byDest[to] = col
	o.dests = append(o.dests, to)
	return col
}

// Begin opens a record addressed to machine `to`. Every Begin must be
// matched by an End before the round's computation returns.
func (o *Outbox) Begin(to int) {
	col := o.lookup(to)
	if col == nil {
		col = o.claimColumn(to)
	}
	o.cur = col
	o.curInt = len(col.ints)
	o.curFlt = len(col.floats)
}

// Int appends one int word to the open record. With room in the column it
// costs one capacity compare (the compiler drops append's own check behind
// it) and a store, and it must stay small enough to inline into its callers
// (scripts/inline_check.sh).
func (o *Outbox) Int(v int64) {
	c := o.cur
	if c == nil {
		panic("mpc: Outbox.Int outside Begin/End")
	}
	if len(c.ints) < cap(c.ints) {
		c.ints = append(c.ints, v)
	} else {
		c.ints = append(grow(c.ints, 1), v)
	}
}

// Ints appends int words to the open record.
func (o *Outbox) Ints(vs ...int64) {
	c := o.cur
	if c == nil {
		panic("mpc: Outbox.Ints outside Begin/End")
	}
	c.ints = append(grow(c.ints, len(vs)), vs...)
}

// Float appends one float word to the open record, as Int appends an int.
func (o *Outbox) Float(v float64) {
	c := o.cur
	if c == nil {
		panic("mpc: Outbox.Float outside Begin/End")
	}
	if len(c.floats) < cap(c.floats) {
		c.floats = append(c.floats, v)
	} else {
		c.floats = append(grow(c.floats, 1), v)
	}
}

// End closes the open record, framing it as the words appended since Begin.
func (o *Outbox) End() {
	col := o.cur
	if col == nil {
		panic("mpc: Outbox.End without Begin")
	}
	o.cur = nil
	col.frame(recMeta{int32(len(col.ints) - o.curInt), int32(len(col.floats) - o.curFlt)})
}

// SendInts emits one record of int words to machine `to`, copied into the
// column buffers, so callers may reuse ints. It does not allocate, and a
// one-word payload — the bulk of every routed fan-out — is a scalar append
// behind one capacity compare, with the growth on the other side of it;
// everything but the first record to a destination and a change of shape
// runs inside this one call.
func (o *Outbox) SendInts(to int, ints ...int64) {
	col := o.lookup(to)
	if col == nil {
		col = o.claimColumn(to)
	}
	if len(ints) == 1 && len(col.ints) < cap(col.ints) {
		col.ints = append(col.ints, ints[0])
	} else {
		col.ints = append(grow(col.ints, len(ints)), ints...)
	}
	col.frame(recMeta{int32(len(ints)), 0})
}

// Charge sends recs records of ints int words and floats float words in
// total to machine `to` without writing them: the model charges them exactly
// as written records — traffic, space, the receiver's Len and Words, the
// receiver's arming — but no cursor yields them, and no buffer holds their
// words. It is for payload no receiver reads, because the driver holds what
// it would say (DESIGN.md, message plane). Charges and written records may
// share a column in any order; the cursor walks the written ones. recs = 0
// charges nothing. Like Begin it must not be called with a record open.
func (o *Outbox) Charge(to, recs, ints, floats int) {
	if recs < 0 || ints < 0 || floats < 0 || recs == 0 && ints+floats != 0 {
		panic(fmt.Sprintf("mpc: Outbox.Charge of %d records, %d ints, %d floats", recs, ints, floats))
	}
	col := o.lookup(to)
	if col == nil {
		if recs == 0 && o.cur == nil && uint(to) < uint(o.cluster.cfg.Machines) {
			return
		}
		col = o.claimColumn(to)
	}
	col.charged += recs
	col.chargedW += ints + floats
}

// reset prepares the outbox for the next round. The columns it filled are
// held by the destination inboxes from the merge onwards, so only the
// references are dropped here; a spare column no record claimed never left
// the outbox and is released at once.
func (o *Outbox) reset() {
	for _, dest := range o.dests {
		o.byDest[dest] = nil
	}
	o.dests = o.dests[:0]
	for _, dest := range o.spared {
		if col := o.spare[dest]; col != nil {
			release(col)
			o.spare[dest] = nil
		}
	}
	o.spared = o.spared[:0]
	o.words, o.count = 0, 0
}

// segment is one sender's column inside an inbox.
type segment struct {
	from int
	col  *column
}

// Inbox is a cursor over the records delivered to one machine at the start
// of the current round, in (sender machine, emission order) order:
//
//	for rec, ok := in.Next(); ok; rec, ok = in.Next() { ... }
//
// or, a same-shape stretch at a time,
//
//	for run, ok := in.NextRun(); ok; run, ok = in.NextRun() { ... }
//
// Next and NextRun advance the same cursor, so they may be mixed. Records
// and runs are views into pooled buffers that are recycled when the round
// ends; they must not be retained or modified. Use Reset to iterate again
// within the same round.
type Inbox struct {
	segs    []segment
	records int
	words   int
	// cursor state
	seg, rec   int
	iOff, fOff int
}

// Len returns the number of records delivered, charged ones included.
func (in *Inbox) Len() int { return in.records }

// Words returns the accounted incoming words (headers and charged records
// included).
func (in *Inbox) Words() int { return in.words }

// Reset rewinds the cursor to the first record.
func (in *Inbox) Reset() { in.seg, in.rec, in.iOff, in.fOff = 0, 0, 0, 0 }

// Next returns the next written record, or ok=false when the inbox is
// exhausted. Charged records are never returned.
func (in *Inbox) Next() (rec Record, ok bool) {
	for in.seg < len(in.segs) {
		s := &in.segs[in.seg]
		if in.rec < s.col.n {
			meta := s.col.meta(in.rec)
			rec = Record{
				From:   s.from,
				Ints:   s.col.ints[in.iOff : in.iOff+int(meta.intLen)],
				Floats: s.col.floats[in.fOff : in.fOff+int(meta.floatLen)],
			}
			in.rec++
			in.iOff += int(meta.intLen)
			in.fOff += int(meta.floatLen)
			return rec, true
		}
		in.seg++
		in.rec, in.iOff, in.fOff = 0, 0, 0
	}
	return Record{}, false
}

// NextRun returns the records from the cursor to the end of their
// same-shape stretch as one Run, or ok=false when the inbox is exhausted. A
// uniform column is one run from the cursor; a column that mixes shapes
// yields its maximal same-shape stretches in order. A run never spans two
// senders.
func (in *Inbox) NextRun() (run Run, ok bool) {
	for in.seg < len(in.segs) {
		s := &in.segs[in.seg]
		col := s.col
		if in.rec < col.n {
			meta := col.meta(in.rec)
			end := col.n
			if len(col.recs) != 0 {
				end = in.rec + 1
				for end < col.n && col.recs[end] == meta {
					end++
				}
			}
			n := end - in.rec
			ints, floats := n*int(meta.intLen), n*int(meta.floatLen)
			run = Run{
				From:     s.from,
				N:        n,
				IntLen:   int(meta.intLen),
				FloatLen: int(meta.floatLen),
				Ints:     col.ints[in.iOff : in.iOff+ints],
				Floats:   col.floats[in.fOff : in.fOff+floats],
			}
			in.rec = end
			in.iOff += ints
			in.fOff += floats
			return run, true
		}
		in.seg++
		in.rec, in.iOff, in.fOff = 0, 0, 0
	}
	return Run{}, false
}

// clear releases the inbox's columns and empties it.
func (in *Inbox) clear() {
	for _, seg := range in.segs {
		release(seg.col)
	}
	in.segs = in.segs[:0]
	in.records, in.words = 0, 0
	in.Reset()
}
