// Package repro reproduces "ImageNet Training in Minutes" (You, Zhang,
// Hsieh, Demmel, Keutzer; ICPP 2018) — LARS-based large-batch training — in
// pure Go on the standard library only.
//
// The implementation lives under internal/; internal/README.md maps its
// packages. Commands are under cmd/, runnable walkthroughs under examples/.
// This package holds only the paper-table and ablation benchmarks.
package repro
