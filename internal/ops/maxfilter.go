package ops

import (
	"container/heap"
	"fmt"

	"znn/internal/tensor"
)

// FilterAlgo selects the 1D sliding-maximum algorithm used by 3D
// max-filtering.
type FilterAlgo int

const (
	// FilterHeap keeps a size-k heap per 1D array, as described in
	// Section II of the paper (O(log k) per element; Table I accounts
	// max-filtering as 6·n³·log k FLOPs via three 1D passes).
	FilterHeap FilterAlgo = iota
	// FilterDeque uses a monotonic deque (O(1) amortized per element), a
	// strictly faster alternative with identical output.
	FilterDeque
)

func (a FilterAlgo) String() string {
	switch a {
	case FilterHeap:
		return "heap"
	case FilterDeque:
		return "deque"
	default:
		return fmt.Sprintf("FilterAlgo(%d)", int(a))
	}
}

// FilterStats counts work done by the sliding-window passes, giving the
// empirical side of Table I's max-filtering row.
type FilterStats struct {
	Comparisons int64
	Elements    int64
}

// MaxFilterForward computes the sliding-window maximum over every position
// of a window of the given shape (Section II, "Max-filtering"), with taps
// spaced by the sparsity along each axis: the max-filtering counterpart of
// sparse convolution, and the paper's dense filter at tensor.Dense().
// Output extent is n − s(k−1) per axis. It is computed as three sequential
// 1D passes along x, y and z. It returns the filtered image and the linear
// input index of each output's maximum (ties resolve to the highest linear
// index). stats may be nil.
func MaxFilterForward(in *tensor.Tensor, window tensor.Shape, sp tensor.Sparsity, algo FilterAlgo, stats *FilterStats) (*tensor.Tensor, []int32) {
	if !window.Valid() || !sp.Valid() {
		panic(fmt.Sprintf("ops: invalid filter window %v (sparsity %v)", window, sp))
	}
	os := in.S.ValidConv(window, sp)
	if !os.Valid() {
		panic(fmt.Sprintf("ops: filter window %v (sparsity %v) does not fit in image %v",
			window, sp, in.S))
	}
	// Pass along x: values and original indices.
	cur := in.Clone()
	idx := make([]int32, in.S.Volume())
	for i := range idx {
		idx[i] = int32(i)
	}
	cur, idx = filterAxis(cur, idx, 0, window.X, sp.X, algo, stats)
	cur, idx = filterAxis(cur, idx, 1, window.Y, sp.Y, algo, stats)
	cur, idx = filterAxis(cur, idx, 2, window.Z, sp.Z, algo, stats)
	if cur.S != os {
		panic(fmt.Sprintf("ops: internal error, filtered shape %v want %v", cur.S, os))
	}
	return cur, idx
}

// filterAxis applies the 1D sliding maximum with window k and dilation d
// along the given axis (0=x, 1=y, 2=z) of the (value, index) image pair,
// producing an image shrunk by d(k−1) along that axis. Output positions
// i < L−d(k−1) take the maximum over {i, i+d, ..., i+d(k−1)}; each residue
// class mod d is an independent dense sliding maximum, so the complexity
// matches the dense case.
func filterAxis(val *tensor.Tensor, idx []int32, axis, k, d int, algo FilterAlgo, stats *FilterStats) (*tensor.Tensor, []int32) {
	if k == 1 {
		return val, idx
	}
	s := val.S
	os := s
	var lineLen, stride, ostride int
	switch axis {
	case 0:
		os.X -= d * (k - 1)
		lineLen, stride, ostride = s.X, 1, 1
	case 1:
		os.Y -= d * (k - 1)
		lineLen, stride, ostride = s.Y, s.X, os.X
	default:
		os.Z -= d * (k - 1)
		lineLen, stride, ostride = s.Z, s.X*s.Y, os.X*os.Y
	}
	if !os.Valid() {
		panic(fmt.Sprintf("ops: dilated width %d·%d exceeds image %v along axis %d", k, d, s, axis))
	}
	out := tensor.New(os)
	oidx := make([]int32, os.Volume())

	// Scratch for the longest residue class.
	maxSub := (lineLen + d - 1) / d
	vals := make([]float64, maxSub)
	srcs := make([]int32, maxSub)
	ovals := make([]float64, maxSub)
	osrcs := make([]int32, maxSub)

	forEachLine(s, axis, func(base int) {
		// The output line has the same transverse coordinates.
		obase := os.Index(s.Coords(base))
		for r := 0; r < d; r++ {
			subLen := (lineLen - r + d - 1) / d
			if subLen < k {
				continue
			}
			for j := 0; j < subLen; j++ {
				p := base + (r+j*d)*stride
				vals[j] = val.Data[p]
				srcs[j] = idx[p]
			}
			subOut := subLen - k + 1
			switch algo {
			case FilterHeap:
				slideMaxHeap(vals[:subLen], srcs[:subLen], k, ovals[:subOut], osrcs[:subOut], stats)
			default:
				slideMaxDeque(vals[:subLen], srcs[:subLen], k, ovals[:subOut], osrcs[:subOut], stats)
			}
			for j := 0; j < subOut; j++ {
				o := obase + (r+j*d)*ostride
				out.Data[o] = ovals[j]
				oidx[o] = osrcs[j]
			}
		}
	})
	return out, oidx
}

// forEachLine invokes f with the base offset of every 1D line along axis.
func forEachLine(s tensor.Shape, axis int, f func(base int)) {
	switch axis {
	case 0:
		for z := 0; z < s.Z; z++ {
			for y := 0; y < s.Y; y++ {
				f(s.Index(0, y, z))
			}
		}
	case 1:
		for z := 0; z < s.Z; z++ {
			for x := 0; x < s.X; x++ {
				f(s.Index(x, 0, z))
			}
		}
	default:
		for y := 0; y < s.Y; y++ {
			for x := 0; x < s.X; x++ {
				f(s.Index(x, y, 0))
			}
		}
	}
}

// slideMaxDeque computes the sliding maximum with a monotonic deque.
// Ties keep the later element so heap and deque agree exactly.
func slideMaxDeque(vals []float64, srcs []int32, k int, ovals []float64, osrcs []int32, stats *FilterStats) {
	type entry struct {
		v   float64
		src int32
		pos int
	}
	deque := make([]entry, 0, k)
	var comparisons int64
	for i := range vals {
		// Drop entries no smaller than the new value (later wins ties).
		for len(deque) > 0 {
			comparisons++
			if deque[len(deque)-1].v <= vals[i] {
				deque = deque[:len(deque)-1]
			} else {
				break
			}
		}
		deque = append(deque, entry{vals[i], srcs[i], i})
		if deque[0].pos <= i-k {
			deque = deque[1:]
		}
		if i >= k-1 {
			ovals[i-k+1] = deque[0].v
			osrcs[i-k+1] = deque[0].src
		}
	}
	if stats != nil {
		stats.Comparisons += comparisons
		stats.Elements += int64(len(vals))
	}
}

// heapEntry orders by value, then by position (later position wins ties so
// the deque and heap algorithms pick identical argmaxes).
type heapEntry struct {
	v   float64
	src int32
	pos int
}

type maxHeap struct {
	e           []heapEntry
	comparisons int64
}

func (h *maxHeap) Len() int { return len(h.e) }
func (h *maxHeap) Less(i, j int) bool {
	h.comparisons++
	if h.e[i].v != h.e[j].v {
		return h.e[i].v > h.e[j].v
	}
	return h.e[i].pos > h.e[j].pos
}
func (h *maxHeap) Swap(i, j int) { h.e[i], h.e[j] = h.e[j], h.e[i] }
func (h *maxHeap) Push(x any)    { h.e = append(h.e, x.(heapEntry)) }
func (h *maxHeap) Pop() any {
	old := h.e
	n := len(old)
	e := old[n-1]
	h.e = old[:n-1]
	return e
}

// slideMaxHeap computes the sliding maximum with a size-k heap and lazy
// deletion, the variant described in the paper ("for each array we keep a
// heap of size k ... each element will be inserted and removed at most
// once, each operation taking log k").
func slideMaxHeap(vals []float64, srcs []int32, k int, ovals []float64, osrcs []int32, stats *FilterStats) {
	h := &maxHeap{e: make([]heapEntry, 0, k+1)}
	for i := range vals {
		heap.Push(h, heapEntry{vals[i], srcs[i], i})
		// Lazily drop elements that slid out of the window.
		for h.e[0].pos <= i-k {
			heap.Pop(h)
		}
		if i >= k-1 {
			ovals[i-k+1] = h.e[0].v
			osrcs[i-k+1] = h.e[0].src
		}
	}
	if stats != nil {
		stats.Comparisons += h.comparisons
		stats.Elements += int64(len(vals))
	}
}

// MaxFilterBackward applies the max-filtering Jacobian: every element of
// the n-shaped output starts at zero, and for each sliding-window position
// the backward value is accumulated onto the input voxel that was selected
// as that window's maximum (Section III-A).
func MaxFilterBackward(grad *tensor.Tensor, argmax []int32, inShape tensor.Shape) *tensor.Tensor {
	if len(argmax) != grad.S.Volume() {
		panic(fmt.Sprintf("ops: argmax length %d does not match grad %v", len(argmax), grad.S))
	}
	out := tensor.New(inShape)
	vol := inShape.Volume()
	for i, g := range grad.Data {
		idx := int(argmax[i])
		if idx < 0 || idx >= vol {
			panic(fmt.Sprintf("ops: argmax[%d] = %d out of range of %v", i, idx, inShape))
		}
		out.Data[idx] += g
	}
	return out
}

// NaiveMaxFilter is the quadratic reference implementation used by tests.
func NaiveMaxFilter(in *tensor.Tensor, window tensor.Shape) (*tensor.Tensor, []int32) {
	os := in.S.ValidConv(window, tensor.Dense())
	out := tensor.New(os)
	argmax := make([]int32, os.Volume())
	for z := 0; z < os.Z; z++ {
		for y := 0; y < os.Y; y++ {
			for x := 0; x < os.X; x++ {
				best := in.At(x, y, z)
				bestIdx := in.S.Index(x, y, z)
				for dz := 0; dz < window.Z; dz++ {
					for dy := 0; dy < window.Y; dy++ {
						for dx := 0; dx < window.X; dx++ {
							i := in.S.Index(x+dx, y+dy, z+dz)
							if v := in.Data[i]; v > best || (v == best && i > bestIdx) {
								best = v
								bestIdx = i
							}
						}
					}
				}
				oi := os.Index(x, y, z)
				out.Data[oi] = best
				argmax[oi] = int32(bestIdx)
			}
		}
	}
	return out, argmax
}
