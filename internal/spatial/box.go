package spatial

// box is the cell rectangle a dense row-major bucket array covers: cells
// minX ≤ cx < minX+w, minY ≤ cy < minY+h, cell (cx, cy) at slot
// (cy-minY)*w + (cx-minX). Both bucket stores (Index's cellGrid and
// PointSet) grow their arrays through it, so a bucket fetch is one bounds
// check and one slice load instead of a map hash. Mobility areas are
// bounded, so the box stays small.
type box struct {
	minX, minY int32
	w, h       int32
}

// slot returns the array index of (cx, cy), ok false outside the box.
func (b box) slot(cx, cy int32) (int32, bool) {
	cx -= b.minX
	cy -= b.minY
	if uint32(cx) >= uint32(b.w) || uint32(cy) >= uint32(b.h) {
		return 0, false
	}
	return cy*b.w + cx, true
}

// grownTo returns the box covering both b and k, with a two-cell margin
// on every side it had to extend so a point oscillating at the frontier
// doesn't re-grow it; grow is false when b already covers k. An empty
// box grows to the 5×5 block centred on k.
func (b box) grownTo(k cellKey) (nb box, grow bool) {
	if b.w == 0 {
		return box{minX: k.cx - 2, minY: k.cy - 2, w: 5, h: 5}, true
	}
	if _, ok := b.slot(k.cx, k.cy); ok {
		return b, false
	}
	minX, minY := b.minX, b.minY
	maxX, maxY := b.minX+b.w-1, b.minY+b.h-1
	if k.cx < minX {
		minX = k.cx - 2
	}
	if k.cy < minY {
		minY = k.cy - 2
	}
	if k.cx > maxX {
		maxX = k.cx + 2
	}
	if k.cy > maxY {
		maxY = k.cy + 2
	}
	return box{minX: minX, minY: minY, w: maxX - minX + 1, h: maxY - minY + 1}, true
}

// relocate returns a fresh array laid out for nb holding src's cells
// (laid out for old) at their absolute coordinates; new cells are zero.
// nb must cover old.
func relocate[E any](old, nb box, src []E) []E {
	dst := make([]E, int(nb.w)*int(nb.h))
	for y := int32(0); y < old.h; y++ {
		copy(dst[(y+old.minY-nb.minY)*nb.w+(old.minX-nb.minX):], src[y*old.w:(y+1)*old.w])
	}
	return dst
}
