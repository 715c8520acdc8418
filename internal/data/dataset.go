// Package data provides the dataset substrate for the measured experiments:
// a deterministic synthetic image-classification generator ("SynthImageNet"),
// batch assembly with optional weak augmentation (random crop + horizontal
// flip, matching the paper's "weak data augmentation" baseline), epoch
// shuffling, and the worker sharding used by data-parallel training.
//
// ImageNet-1k itself (1.28M images) is not redistributable and far exceeds
// a laptop-scale run; SynthImageNet is the substitution documented in
// internal/README.md. It preserves what the paper's optimization experiments need:
// a multi-class vision-like task where (a) small-batch SGD reaches high
// accuracy in a fixed epoch budget, (b) naive large-batch training
// underperforms at equal epochs, and (c) translation/flip augmentation
// carries signal.
package data

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Dataset is an in-memory labelled image set in NCHW layout.
type Dataset struct {
	Images  *tensor.Tensor // [N, C, H, W]
	Labels  []int
	Classes int
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Labels) }

// ImageShape returns (C, H, W).
func (d *Dataset) ImageShape() (c, h, w int) {
	return d.Images.Shape[1], d.Images.Shape[2], d.Images.Shape[3]
}

// check validates the dataset's stored geometry before a view is
// materialized: Images must be [N,C,H,W] and agree with the label count.
func (d *Dataset) check(op string) error {
	if d.Images == nil {
		return shapeErrf(op, -1, "dataset has nil image tensor")
	}
	if len(d.Images.Shape) != 4 {
		return shapeErrf(op, -1, "image tensor is %v, want 4-d [N,C,H,W]", d.Images.Shape)
	}
	if n := d.Images.Shape[0]; n != len(d.Labels) {
		return shapeErrf(op, -1, "image tensor holds %d examples but dataset has %d labels", n, len(d.Labels))
	}
	return nil
}

// Gather copies the examples at idx into a fresh batch tensor and label
// slice. The copy keeps augmentation from mutating the dataset. A malformed
// dataset (non-[N,C,H,W] images, image/label skew) or an index outside
// [0, N) returns a *ShapeError rather than mis-indexing or panicking.
func (d *Dataset) Gather(idx []int) (*tensor.Tensor, []int, error) {
	if err := d.check("Gather"); err != nil {
		return nil, nil, err
	}
	c, h, w := d.ImageShape()
	imLen := c * h * w
	x := tensor.New(len(idx), c, h, w)
	labels := make([]int, len(idx))
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			return nil, nil, shapeErrf("Gather", j, "out of range [0,%d)", d.Len())
		}
		copy(x.Data[i*imLen:(i+1)*imLen], d.Images.Data[j*imLen:(j+1)*imLen])
		labels[i] = d.Labels[j]
	}
	return x, labels, nil
}

// MustGather is Gather for callers whose indices are valid by construction
// (permutations of [0, N)); it panics on the errors Gather would return.
func (d *Dataset) MustGather(idx []int) (*tensor.Tensor, []int) {
	x, labels, err := d.Gather(idx)
	if err != nil {
		panic(err)
	}
	return x, labels
}

// GatherAt materializes the batch at resolution h×w: examples are gathered
// and each channel plane is resampled with the deterministic kernel resize
// (area for shrink, bilinear for grow). At the dataset's native resolution
// it is exactly Gather — same bytes, no resampling. This is the primitive
// the loader and trainer use to apply a ResolutionSchedule while leaving
// shard/span logic untouched: batches change shape, indices do not.
func (d *Dataset) GatherAt(idx []int, h, w int) (*tensor.Tensor, []int, error) {
	if err := d.check("GatherAt"); err != nil {
		return nil, nil, err
	}
	c, sh, sw := d.ImageShape()
	if h == sh && w == sw {
		return d.Gather(idx)
	}
	if h <= 0 || w <= 0 {
		return nil, nil, shapeErrf("GatherAt", -1, "target resolution %dx%d must be positive", h, w)
	}
	x := tensor.New(len(idx), c, h, w)
	labels := make([]int, len(idx))
	srcPlane, dstPlane := sh*sw, h*w
	for i, j := range idx {
		if j < 0 || j >= d.Len() {
			return nil, nil, shapeErrf("GatherAt", j, "out of range [0,%d)", d.Len())
		}
		for ch := 0; ch < c; ch++ {
			src := d.Images.Data[(j*c+ch)*srcPlane : (j*c+ch+1)*srcPlane]
			dst := x.Data[(i*c+ch)*dstPlane : (i*c+ch+1)*dstPlane]
			kernel.ResizePlane(dst, h, w, src, sh, sw)
		}
		labels[i] = d.Labels[j]
	}
	return x, labels, nil
}

// Subset returns a view-like dataset holding copies of the examples at idx.
func (d *Dataset) Subset(idx []int) (*Dataset, error) {
	x, labels, err := d.Gather(idx)
	if err != nil {
		return nil, &ShapeError{Op: "Subset", Index: err.(*ShapeError).Index, Detail: err.(*ShapeError).Detail}
	}
	return &Dataset{Images: x, Labels: labels, Classes: d.Classes}, nil
}

// Shard partitions the dataset round-robin into p shards and returns shard
// i. Round-robin keeps class balance across workers, which matters for the
// per-worker gradient quality in data-parallel SGD. Panics unless
// 0 <= i < p.
func (d *Dataset) Shard(i, p int) *Dataset {
	if p <= 0 || i < 0 || i >= p {
		panic(fmt.Sprintf("data: Shard(%d, %d) invalid", i, p))
	}
	var idx []int
	for j := i; j < d.Len(); j += p {
		idx = append(idx, j)
	}
	// Round-robin indices are in range by construction; a failure here is a
	// malformed dataset, which Shard's contract treats as a programmer error.
	sub, err := d.Subset(idx)
	if err != nil {
		panic(err)
	}
	return sub
}

// Shuffled returns a deterministic permutation of example indices for the
// given epoch. Every worker computes the same permutation from the same
// seed, which is what keeps synchronous data-parallel training sequentially
// consistent with the single-process run.
func (d *Dataset) Shuffled(seed uint64, epoch int) []int {
	r := rng.New(seed ^ (uint64(epoch)+1)*0x9e3779b97f4a7c15)
	return r.Perm(d.Len())
}

// Spans splits n batch rows into k contiguous near-equal spans [lo, hi),
// the first n mod k spans one row longer. It is the logical shard split of
// data-parallel training (internal/dist): the split depends only on (n, k),
// which is what makes the engine's reductions independent of the physical
// worker count. Spans may be empty when n < k.
func Spans(n, k int) [][2]int {
	if k <= 0 {
		panic(fmt.Sprintf("data: Spans(%d, %d): need k > 0", n, k))
	}
	base, rem := n/k, n%k
	spans := make([][2]int, k)
	lo := 0
	for i := range spans {
		hi := lo + base
		if i < rem {
			hi++
		}
		spans[i] = [2]int{lo, hi}
		lo = hi
	}
	return spans
}

// Batches splits a permutation into consecutive batches of size b; the final
// short batch is dropped (standard for fixed-size training pipelines; with
// the paper's fixed-epoch accounting the epoch size is then n - n mod b).
func Batches(perm []int, b int) [][]int {
	if b <= 0 {
		panic("data: batch size must be positive")
	}
	var out [][]int
	for lo := 0; lo+b <= len(perm); lo += b {
		out = append(out, perm[lo:lo+b])
	}
	return out
}
