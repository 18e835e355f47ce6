//! Row storage that never moves: the flow table's slab and every per-slot
//! array of the resident arena.
//!
//! Rows of `width` elements are appended one fixed chunk at a time: row
//! `i` lives in chunk `i / CHUNK` at element offset `(i % CHUNK) × width`,
//! and a chunk never reallocates once it holds `CHUNK` rows. Growth past
//! the first chunk therefore copies nothing — a `Vec` that doubles copies
//! every live row each time, which is a multi-millisecond stall at tens of
//! thousands of flows — and what is reserved stays within one chunk of the
//! peak instead of within 2× of it.
//!
//! Below one chunk the first chunk doubles from [`FIRST_ROWS`] (so a
//! one-flow scorer or a small table reserves little), copying at most
//! half a chunk. `max_rows` cuts the last chunk short, so capacity never
//! passes the table's configured size.
//!
//! Capacity is a function of `max_rows` and of how many rows were ever
//! pushed, nothing else: containers built with the same `max_rows` and
//! pushed together — the slab and the arena's arrays — add their chunks
//! at the same push without telling one another.

/// Rows per chunk.
pub(crate) const CHUNK: usize = 1024;

/// Rows the first chunk starts with, before it doubles to [`CHUNK`].
const FIRST_ROWS: usize = 64;

/// Rows of `width` elements in fixed chunks (see the module docs).
#[derive(Debug)]
pub(crate) struct Chunked<T> {
    width: usize,
    max_rows: usize,
    /// Rows pushed since the last [`clear`](Self::clear).
    len: usize,
    /// Rows the last chunk has room for; every other chunk has `CHUNK`.
    last_rows: usize,
    chunks: Vec<Vec<T>>,
}

impl<T: Clone> Chunked<T> {
    /// An empty container of `width`-element rows that reserves room for
    /// at most `max_rows` (at least one) while no more are pushed.
    pub(crate) fn new(width: usize, max_rows: usize) -> Chunked<T> {
        Chunked {
            width,
            max_rows,
            len: 0,
            last_rows: 0,
            chunks: Vec::new(),
        }
    }

    /// Rows pushed.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Rows there is room for before the next chunk (or doubling).
    pub(crate) fn capacity(&self) -> usize {
        self.chunks.len().saturating_sub(1) * CHUNK + self.last_rows
    }

    /// Row `i`.
    pub(crate) fn row(&self, i: usize) -> &[T] {
        debug_assert!(i < self.len, "row {i} of {}", self.len);
        let at = (i % CHUNK) * self.width;
        &self.chunks[i / CHUNK][at..at + self.width]
    }

    /// Row `i`, mutably.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [T] {
        debug_assert!(i < self.len, "row {i} of {}", self.len);
        let at = (i % CHUNK) * self.width;
        &mut self.chunks[i / CHUNK][at..at + self.width]
    }

    /// The element of one-element row `i` (a container of `width` 1).
    pub(crate) fn get(&self, i: usize) -> &T {
        debug_assert!(
            self.width == 1 && i < self.len,
            "element {i} of {}",
            self.len
        );
        &self.chunks[i / CHUNK][i % CHUNK]
    }

    /// The element of one-element row `i`, mutably.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(
            self.width == 1 && i < self.len,
            "element {i} of {}",
            self.len
        );
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }

    /// Appends a row of `width` copies of `fill` (for a one-element row,
    /// `fill` itself) and returns its index.
    pub(crate) fn push(&mut self, fill: T) -> usize {
        if self.len == self.capacity() {
            self.grow();
        }
        let chunk = &mut self.chunks[self.len / CHUNK];
        chunk.resize(chunk.len() + self.width, fill);
        self.len += 1;
        self.len - 1
    }

    /// Makes room for at least one more row: the first chunk doubles, a
    /// chunk the clamp cut short fills up, otherwise a new chunk starts —
    /// each as far as `max_rows` allows, but always by one row at least.
    fn grow(&mut self) {
        let room = self.max_rows.saturating_sub(self.capacity()).max(1);
        let first = self.chunks.len() == 1;
        match self.chunks.last_mut() {
            Some(last) if self.last_rows < CHUNK => {
                let full = if first {
                    (self.last_rows * 2).min(CHUNK)
                } else {
                    CHUNK
                };
                let rows = (full - self.last_rows).clamp(1, room);
                last.reserve_exact(rows * self.width);
                self.last_rows += rows;
            }
            _ => {
                let rows = if self.chunks.is_empty() {
                    // A one-row owner (the offline scorer) keeps a
                    // one-entry list of chunks.
                    self.chunks.reserve_exact(1);
                    FIRST_ROWS
                } else {
                    CHUNK
                };
                let rows = rows.min(room);
                self.chunks.push(Vec::with_capacity(rows * self.width));
                self.last_rows = rows;
            }
        }
    }

    /// Drops every row, keeping the chunks.
    pub(crate) fn clear(&mut self) {
        for chunk in &mut self.chunks {
            chunk.clear();
        }
        self.len = 0;
    }

    /// Heap footprint: the chunks and the list of them.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let elements: usize = self.chunks.iter().map(Vec::capacity).sum();
        elements * size_of::<T>() + self.chunks.capacity() * size_of::<Vec<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fills `rows` rows of `c`, row `i` holding `i` in each element.
    fn fill(c: &mut Chunked<u32>, rows: usize) {
        for i in c.len()..rows {
            assert_eq!(c.push(i as u32), i);
        }
    }

    #[test]
    fn first_chunk_doubles_then_chunks_are_added_whole() {
        let mut c = Chunked::new(3, 1 << 20);
        let mut caps = Vec::new();
        for rows in 1..=3 * CHUNK + 1 {
            fill(&mut c, rows);
            if caps.last() != Some(&c.capacity()) {
                caps.push(c.capacity());
            }
        }
        let doublings = (FIRST_ROWS.trailing_zeros()..=CHUNK.trailing_zeros()).map(|k| 1 << k);
        let whole = [2 * CHUNK, 3 * CHUNK, 4 * CHUNK];
        assert_eq!(caps, doublings.chain(whole).collect::<Vec<_>>());
        for i in 0..c.len() {
            assert_eq!(c.row(i), [i as u32; 3]);
        }
    }

    #[test]
    fn max_rows_cuts_the_last_chunk_short() {
        let mut c = Chunked::new(1, CHUNK + 7);
        fill(&mut c, CHUNK + 1);
        assert_eq!(c.capacity(), CHUNK + 7);
        fill(&mut c, CHUNK + 7);
        assert_eq!(c.capacity(), CHUNK + 7);
        // Past the clamp, one row at a time: a table of `max_flows` 0
        // still holds one flow.
        fill(&mut c, CHUNK + 8);
        assert_eq!(c.capacity(), CHUNK + 8);

        let mut one = Chunked::new(5, 1);
        fill(&mut one, 1);
        let list_entry = std::mem::size_of::<Vec<u32>>();
        assert_eq!((one.capacity(), one.heap_bytes()), (1, 5 * 4 + list_entry));
    }

    #[test]
    fn rows_never_move_once_their_chunk_is_whole() {
        let mut c = Chunked::new(2, 1 << 20);
        fill(&mut c, CHUNK);
        let pinned: Vec<*const u32> = (0..CHUNK).map(|i| c.row(i).as_ptr()).collect();
        fill(&mut c, 4 * CHUNK);
        for (i, &p) in pinned.iter().enumerate() {
            assert_eq!(c.row(i).as_ptr(), p, "row {i} moved");
        }
    }

    #[test]
    fn clear_keeps_the_chunks_and_reuses_them_in_order() {
        let mut c = Chunked::new(4, 1 << 20);
        fill(&mut c, 2 * CHUNK + 5);
        let (cap, bytes, first) = (c.capacity(), c.heap_bytes(), c.row(0).as_ptr());
        c.clear();
        assert_eq!((c.len(), c.capacity(), c.heap_bytes()), (0, cap, bytes));
        fill(&mut c, 3 * CHUNK);
        assert_eq!(c.row(0).as_ptr(), first);
        assert_eq!(c.capacity(), 3 * CHUNK);
        c.row_mut(CHUNK + 1)[3] = 7;
        assert_eq!(
            c.row(CHUNK + 1),
            [CHUNK as u32 + 1, CHUNK as u32 + 1, CHUNK as u32 + 1, 7]
        );
    }

    #[test]
    fn zero_width_rows_count_without_storage() {
        let mut c: Chunked<u32> = Chunked::new(0, 1 << 20);
        fill(&mut c, CHUNK + 1);
        assert_eq!((c.len(), c.capacity()), (CHUNK + 1, 2 * CHUNK));
        assert!(c.row(CHUNK).is_empty());
    }
}
