//! Disjoint-set union (union–find) with path halving and union by size.

/// A disjoint-set forest over `0..n`.
///
/// Used by Kruskal's MST, Borůvka phases and the δ-far connectivity
/// computations.
///
/// # Example
///
/// ```
/// use qdc_graph::DisjointSets;
///
/// let mut d = DisjointSets::new(4);
/// assert!(d.union(0, 1));
/// assert!(!d.union(1, 0));
/// assert!(d.same_set(0, 1));
/// assert_eq!(d.set_count(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct DisjointSets {
    parent: Vec<usize>,
    size: Vec<usize>,
    sets: usize,
}

impl DisjointSets {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSets {
            parent: (0..n).collect(),
            size: vec![1; n],
            sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of the set containing `x`, with path halving.
    ///
    /// # Panics
    ///
    /// Panics if `x >= self.len()`.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.sets -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn same_set(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Current number of disjoint sets.
    pub fn set_count(&self) -> usize {
        self.sets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_then_unions() {
        let mut d = DisjointSets::new(5);
        assert_eq!(d.set_count(), 5);
        assert!(d.union(0, 1));
        assert!(d.union(2, 3));
        assert_eq!(d.set_count(), 3);
        assert!(d.union(1, 3));
        assert_eq!(d.set_count(), 2);
        assert!(d.same_set(0, 2));
        assert!(!d.same_set(0, 4));
    }

    #[test]
    fn union_same_set_is_noop() {
        let mut d = DisjointSets::new(3);
        d.union(0, 1);
        assert!(!d.union(0, 1));
        assert_eq!(d.set_count(), 2);
    }

    #[test]
    fn len_and_empty() {
        let d = DisjointSets::new(0);
        assert!(d.is_empty());
        assert_eq!(DisjointSets::new(3).len(), 3);
    }
}
