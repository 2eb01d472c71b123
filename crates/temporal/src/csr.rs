//! Flat compressed-sparse-row (CSR) tables for per-node arc indexes.
//!
//! The §4.4 induction spends most of its time scanning, for each node that
//! carries a fresh delta, the arcs leaving that node. A `Vec<Vec<_>>`
//! adjacency keeps every row in its own heap allocation; at 10⁵–10⁶ nodes
//! the pointer chase and allocator traffic dominate the scan itself. A
//! [`Csr`] packs all rows into one contiguous entry array with a
//! `row_offsets` table, so looking up a row is two loads and a slice, and
//! walking rows in ascending id walks memory forward.

/// A compressed sparse row table: all rows packed into one contiguous
/// `entries` array, with `row_offsets[r]..row_offsets[r + 1]` delimiting
/// row `r` (§4.4 — the storage layout behind the engine's arc index, where
/// a row holds the arcs leaving one node sorted by interval end).
///
/// Offsets are `u32`: the table holds at most `u32::MAX` entries, which
/// bounds traces at ~2×10⁹ contacts — far above the 10⁶-node target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// `num_rows + 1` offsets into `entries`, non-decreasing.
    row_offsets: Vec<u32>,
    /// All rows, concatenated in row order.
    entries: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Builds the table from `(row, entry)` items in one stable counting
    /// sort: count per-row degrees, prefix-sum them into offsets, then
    /// scatter each item to its row's cursor. Items within a row keep their
    /// input order; use [`Csr::sort_rows_by_key`] for a per-row order.
    ///
    /// Every `row` must be `< num_rows` and the total entry count must fit
    /// in `u32` (asserted).
    pub fn build<I>(num_rows: usize, items: I) -> Csr<T>
    where
        I: IntoIterator<Item = (u32, T)>,
    {
        let flat: Vec<(u32, T)> = items.into_iter().collect();
        assert!(
            flat.len() <= u32::MAX as usize,
            "CSR entry count exceeds u32"
        );
        let mut row_offsets = vec![0u32; num_rows + 1];
        for &(r, _) in &flat {
            assert!((r as usize) < num_rows, "CSR row id out of range");
            row_offsets[r as usize + 1] += 1;
        }
        for i in 1..=num_rows {
            row_offsets[i] += row_offsets[i - 1];
        }
        // Stable scatter: `take[slot]` is the input index that fills `slot`,
        // computed by advancing a per-row cursor — then one gather pass
        // materializes the entries without needing `T: Default`.
        let mut cursor: Vec<u32> = row_offsets[..num_rows].to_vec();
        let mut take: Vec<u32> = vec![0; flat.len()];
        for (i, &(r, _)) in flat.iter().enumerate() {
            let c = &mut cursor[r as usize];
            take[*c as usize] = i as u32;
            *c += 1;
        }
        let entries: Vec<T> = take.iter().map(|&i| flat[i as usize].1).collect();
        Csr {
            row_offsets,
            entries,
        }
    }

    /// Sorts every row's entries by the given key (unstable within a row).
    pub fn sort_rows_by_key<K, F>(&mut self, mut key: F)
    where
        K: Ord,
        F: FnMut(&T) -> K,
    {
        for r in 0..self.num_rows() {
            let range = self.row_range(r);
            self.entries[range].sort_unstable_by_key(&mut key);
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Total number of entries across all rows.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Row `r` as a contiguous slice.
    pub fn row(&self, r: usize) -> &[T] {
        &self.entries[self.row_range(r)]
    }

    /// The half-open range of row `r` inside [`Csr::entries`] — the hook for
    /// keeping parallel per-entry columns (e.g. contact ids) alongside a
    /// table whose entries were split out via [`Csr::into_offsets_and_entries`].
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_offsets[r] as usize..self.row_offsets[r + 1] as usize
    }

    /// The full offsets table (`num_rows + 1` entries, non-decreasing).
    pub fn row_offsets(&self) -> &[u32] {
        &self.row_offsets
    }

    /// All entries, concatenated in row order.
    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    /// Decomposes into `(row_offsets, entries)` — consumers that want to
    /// re-shape the entry array (split columns, re-type) take ownership and
    /// keep the offsets table as their own row index.
    pub fn into_offsets_and_entries(self) -> (Vec<u32>, Vec<T>) {
        (self.row_offsets, self.entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_groups_rows_and_keeps_input_order() {
        let csr = Csr::build(4, [(2u32, 'a'), (0, 'b'), (2, 'c'), (3, 'd'), (0, 'e')]);
        assert_eq!(csr.num_rows(), 4);
        assert_eq!(csr.num_entries(), 5);
        assert_eq!(csr.row(0), &['b', 'e']);
        assert_eq!(csr.row(1), &[] as &[char]);
        assert_eq!(csr.row(2), &['a', 'c']);
        assert_eq!(csr.row(3), &['d']);
        assert_eq!(csr.row_offsets(), &[0, 2, 2, 4, 5]);
    }

    #[test]
    fn empty_table_has_empty_rows() {
        let csr: Csr<u64> = Csr::build(3, []);
        assert_eq!(csr.num_entries(), 0);
        for r in 0..3 {
            assert!(csr.row(r).is_empty());
        }
    }

    #[test]
    fn sort_rows_orders_within_rows_only() {
        let mut csr = Csr::build(2, [(0u32, 9i32), (1, 5), (0, 3), (1, 7), (0, 6)]);
        csr.sort_rows_by_key(|&v| v);
        assert_eq!(csr.row(0), &[3, 6, 9]);
        assert_eq!(csr.row(1), &[5, 7]);
    }

    #[test]
    fn row_ranges_align_with_parallel_columns() {
        let csr = Csr::build(3, [(1u32, 10u8), (0, 20), (1, 30)]);
        let (offsets, entries) = csr.clone().into_offsets_and_entries();
        assert_eq!(offsets, vec![0, 1, 3, 3]);
        assert_eq!(entries, vec![20, 10, 30]);
        assert_eq!(csr.row_range(1), 1..3);
        assert_eq!(&entries[csr.row_range(1)], &[10, 30]);
    }

    #[test]
    fn dense_single_row() {
        let csr = Csr::build(1, (0..100u32).map(|i| (0u32, i)));
        assert_eq!(csr.row(0).len(), 100);
        assert_eq!(csr.row(0)[42], 42);
    }
}
