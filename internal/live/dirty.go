package live

import (
	"repro/internal/graph"
)

// dirtySweep finds the dirty centers of one batch: the nodes within r
// undirected hops of a mutated node (a seed) in the graph before or after the
// batch. It runs one breadth-first search per swept side, extended a level at
// a time as the batch's standing queries are maintained in ascending radius,
// so one traversal to the largest radius serves every radius below it, and
// unites what the sides reached into one bitset. Its buffers are the store's,
// reused across batches under Store.mu.
type dirtySweep struct {
	side  [2]sweepSide
	sides int // side[:sides] is swept: one, or the pre- and post-batch graph
	depth int // levels expanded so far on every swept side
	dirty graph.NodeSet
	row   []int32 // the buffer adjacency rows are decoded into
	// byLabel is dispatch's index, label id → the group's queries whose
	// pattern has that label; empty between dispatches.
	byLabel [][]*StandingQuery
}

// sweepSide is the search over one side's graph: its queue holds the nodes
// reached in level order, and queue[lo:] is the level last reached.
type sweepSide struct {
	g       *graph.Graph
	visited graph.NodeSet
	queue   []int32
	lo      int
	added   int // queue[:added] is in dirty already
}

// begin starts the sweep of a batch from seeds (repeats allowed) over the
// pre-batch graph old and the post-batch graph cur. A batch that only added
// adjacency (grew) sweeps cur, one that only removed it (shrank) sweeps old:
// the swept side's adjacency contains the other's, so its reach does too. A
// batch that did both sweeps both, and one that did neither — labels moved,
// adjacency did not — sweeps cur. Seeds a side does not hold, nodes the batch
// added seen from old, are skipped.
func (d *dirtySweep) begin(seeds []int32, old, cur *graph.Graph, grew, shrank bool) {
	n := cur.NumNodes()
	d.dirty.Reset(n)
	d.depth = 0
	switch {
	case grew && shrank:
		d.sides = 2
		d.side[0].g, d.side[1].g = old, cur
	case shrank:
		d.sides = 1
		d.side[0].g = old
	default:
		d.sides = 1
		d.side[0].g = cur
	}
	for i := range d.side[:d.sides] {
		sd := &d.side[i]
		sd.visited.Reset(n)
		sd.queue, sd.lo, sd.added = sd.queue[:0], 0, 0
		for _, v := range seeds {
			if int(v) < sd.g.NumNodes() && sd.visited.Add(v) {
				sd.queue = append(sd.queue, v)
			}
		}
	}
}

// extend grows every side's search to radius levels and adds what they
// reached to dirty, which then holds exactly the centers within radius hops
// of a seed. Radii must not decrease between calls of one batch.
func (d *dirtySweep) extend(radius int) {
	for ; d.depth < radius; d.depth++ {
		for i := range d.side[:d.sides] {
			d.expand(&d.side[i])
		}
	}
	for i := range d.side[:d.sides] {
		sd := &d.side[i]
		for _, v := range sd.queue[sd.added:] {
			d.dirty.Add(v)
		}
		sd.added = len(sd.queue)
	}
}

// expand queues the next level of sd: the unvisited neighbours, either
// direction, of its last level.
func (d *dirtySweep) expand(sd *sweepSide) {
	out, in := sd.g.Rows()
	hi := len(sd.queue)
	for _, v := range sd.queue[sd.lo:hi] {
		d.row = in.AppendRow(out.AppendRow(d.row[:0], v), v)
		for _, w := range d.row {
			if sd.visited.Add(w) {
				sd.queue = append(sd.queue, w)
			}
		}
	}
	sd.lo = hi
}

// dispatch hands each query of group the dirty centers that carry one of its
// pattern's labels, ascending, in its eval buffer: one walk over dirty reads
// each center's label once, in nodeLbl (the post-batch labels, every one
// below numLabels), and looks up the queries that want it in byLabel.
func (d *dirtySweep) dispatch(group []*StandingQuery, nodeLbl []int32, numLabels int) {
	if grow := numLabels - len(d.byLabel); grow > 0 {
		d.byLabel = append(d.byLabel, make([][]*StandingQuery, grow)...)
	}
	byLabel := d.byLabel
	for _, sq := range group {
		sq.eval = sq.eval[:0]
		for _, lbl := range sq.labels {
			byLabel[lbl] = append(byLabel[lbl], sq)
		}
	}
	for c := d.dirty.Next(0); c >= 0; c = d.dirty.Next(c + 1) {
		for _, sq := range byLabel[nodeLbl[c]] {
			sq.eval = append(sq.eval, c)
		}
	}
	for _, sq := range group {
		for _, lbl := range sq.labels {
			byLabel[lbl] = byLabel[lbl][:0]
		}
	}
}
