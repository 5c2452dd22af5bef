//! Order statistics over the nodes Alg. 2 has not selected yet.

/// The set `{v < n : v not removed}` as a Fenwick tree of 0/1 counts.
///
/// [`RemainingSet::nth`] returns the `i`-th smallest member — exactly
/// `(0..n).filter(|&v| !removed[v]).nth(i)` — in `O(log n)`, and
/// [`RemainingSet::remove`] costs `O(log n)`, so a greedy step no longer
/// rebuilds an `O(n)` list of remaining nodes.
#[derive(Clone, Debug)]
pub struct RemainingSet {
    /// 1-based Fenwick tree: `tree[i]` counts members in `(i − lowbit(i), i]`.
    tree: Vec<u32>,
    present: Vec<bool>,
    len: usize,
}

impl RemainingSet {
    /// The full set `{0, …, n−1}`, built in `O(n)`.
    pub fn full(n: usize) -> Self {
        // With every count 1, node `i`'s range `(i − lowbit(i), i]` holds
        // exactly `lowbit(i)` members.
        let tree = (0..=n).map(|i| (i & i.wrapping_neg()) as u32).collect();
        Self {
            tree,
            present: vec![true; n],
            len: n,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether every node has been removed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `v` is still a member.
    pub fn contains(&self, v: usize) -> bool {
        self.present.get(v).copied().unwrap_or(false)
    }

    /// Removes `v`; returns whether it was a member.
    pub fn remove(&mut self, v: usize) -> bool {
        if !self.contains(v) {
            return false;
        }
        self.present[v] = false;
        self.len -= 1;
        let mut i = v + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
        true
    }

    /// The `i`-th smallest member (0-based). Panics if `i >= len()`.
    pub fn nth(&self, i: usize) -> usize {
        assert!(
            i < self.len,
            "rank {i} out of range for {} members",
            self.len
        );
        let n = self.tree.len() - 1;
        // Descend to the largest `pos` whose prefix count is `<= i`; the
        // member of rank `i` is then node `pos` (1-based `pos + 1`).
        let mut pos = 0usize;
        let mut rank = i as u32;
        let mut step = if n == 0 { 0 } else { 1usize << n.ilog2() };
        while step > 0 {
            let next = pos + step;
            if next <= n && self.tree[next] <= rank {
                pos = next;
                rank -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_set_ranks_are_identity() {
        for n in [1usize, 2, 3, 7, 8, 9, 64, 100] {
            let s = RemainingSet::full(n);
            assert_eq!(s.len(), n);
            for i in 0..n {
                assert_eq!(s.nth(i), i);
            }
        }
    }

    #[test]
    fn remove_is_idempotent() {
        let mut s = RemainingSet::full(5);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert!(!s.remove(9));
        assert_eq!(s.len(), 4);
        assert_eq!((0..4).map(|i| s.nth(i)).collect::<Vec<_>>(), [0, 1, 3, 4]);
    }

    #[test]
    fn empty_set() {
        let mut s = RemainingSet::full(1);
        assert!(s.remove(0));
        assert!(s.is_empty());
        assert!(RemainingSet::full(0).is_empty());
    }
}
