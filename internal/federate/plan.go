package federate

// InvalidateDataset drops every cached rewrite plan targeting the given
// data set; wired to voidkb.KB.Subscribe so a changed voiD entry cannot
// serve stale plans. It returns how many entries were dropped.
func (e *Executor) InvalidateDataset(dataset string) int {
	return e.cache.Invalidate(func(ds string) bool { return ds == dataset })
}

// FlushPlans empties the rewrite-plan cache; wired to align.KB.Subscribe
// since cached plans embed the alignment set they were produced under.
// It returns how many entries were dropped.
func (e *Executor) FlushPlans() int {
	return e.cache.Invalidate(nil)
}
