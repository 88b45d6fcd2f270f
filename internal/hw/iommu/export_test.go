package iommu

// QueueDepth returns pending invalidations.
func (u *IOMMU) QueueDepth() int { return len(u.invQueue) }
