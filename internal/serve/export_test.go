package serve

// SetBeforeBatch installs a hook run at the head of every process()
// call. Test-only: tests use it to hold the batch loop still while they
// fill the queue deterministically.
func (s *Server) SetBeforeBatch(f func()) { s.beforeBatch = f }

// QueuedItems reports how many queue items (request chunks) wait in the
// coalescer queue.
func (s *Server) QueuedItems() int { return len(s.queue) }
