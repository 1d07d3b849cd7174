package lts

// LabelNames returns the dense-label name table (nil for anonymous
// indexes). Shared; do not modify.
func (x *Index) LabelNames() []string { return x.labels }
