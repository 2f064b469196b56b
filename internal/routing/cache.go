package routing

import "ecgrid/internal/hostid"

// DupCache remembers recently seen broadcast identifiers so floods
// terminate. The paper uses the (Src, id) pair of RREQ packets.
type DupCache struct {
	ttl  float64
	seen map[dupKey]float64 // key -> time first seen
}

type dupKey struct {
	src hostid.ID
	id  uint32
}

// NewDupCache creates a cache whose records expire after ttl seconds.
// Its map is made on the first record.
func NewDupCache(ttl float64) *DupCache {
	if ttl <= 0 {
		panic("routing: non-positive dup-cache ttl")
	}
	return &DupCache{ttl: ttl}
}

// Seen records (src, id) and reports whether it was already present and
// unexpired. Expired records are pruned lazily.
func (c *DupCache) Seen(src hostid.ID, id uint32, now float64) bool {
	k := dupKey{src, id}
	if t, ok := c.seen[k]; ok && now-t <= c.ttl {
		return true
	}
	if c.seen == nil {
		c.seen = make(map[dupKey]float64)
	}
	c.seen[k] = now
	if len(c.seen) > 4096 {
		c.prune(now)
	}
	return false
}

func (c *DupCache) prune(now float64) {
	for k, t := range c.seen { //simlint:ordered deletion-only sweep

		if now-t > c.ttl {
			delete(c.seen, k)
		}
	}
}

// Len returns the number of stored records (including expired ones not
// yet pruned).
func (c *DupCache) Len() int { return len(c.seen) }

// Buffer holds data packets awaiting a route or a sleeping destination's
// wake-up. Each destination gets a bounded FIFO; overflow drops the
// oldest packet (the paper buffers at the gateway while the destination
// sleeps, and a real gateway has finite memory).
type Buffer struct {
	perDest int
	queues  map[hostid.ID][]*DataPacket
	dropped uint64
}

// NewBuffer creates a buffer holding at most perDest packets per
// destination. Its map is made on the first Push.
func NewBuffer(perDest int) *Buffer {
	if perDest <= 0 {
		panic("routing: non-positive buffer capacity")
	}
	return &Buffer{perDest: perDest}
}

// Push queues pkt for dst, dropping the oldest packet if full.
func (b *Buffer) Push(dst hostid.ID, pkt *DataPacket) {
	q := b.queues[dst]
	if len(q) >= b.perDest {
		q = q[1:]
		b.dropped++
	}
	if b.queues == nil {
		b.queues = make(map[hostid.ID][]*DataPacket)
	}
	b.queues[dst] = append(q, pkt)
}

// PopAll removes and returns every packet queued for dst, in FIFO order.
func (b *Buffer) PopAll(dst hostid.ID) []*DataPacket {
	q := b.queues[dst]
	delete(b.queues, dst)
	return q
}

// Pending returns the number of packets queued for dst.
func (b *Buffer) Pending(dst hostid.ID) int { return len(b.queues[dst]) }

// Destinations returns the number of destinations with queued packets.
func (b *Buffer) Destinations() int { return len(b.queues) }

// Dropped returns how many packets overflow has discarded.
func (b *Buffer) Dropped() uint64 { return b.dropped }
