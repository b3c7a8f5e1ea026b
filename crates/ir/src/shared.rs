use std::sync::Arc;

/// Elements per chunk: a clone copies `len / CHUNK` pointers, and the
/// first push after a clone re-allocates at most `CHUNK` of them.
const CHUNK: usize = 64;

/// An append-only vector whose clones share their elements.
///
/// Every element sits behind its own [`Arc`], and the element pointers
/// are grouped into fixed chunks that are `Arc`-shared too. Cloning
/// therefore copies one pointer per chunk and never an element, and a
/// push into a vector that has been cloned re-allocates only the last
/// chunk's pointer array. This is what lets a published snapshot
/// generation and the writer's next one hold the same signatures and
/// tail rows: the cost of publishing stops growing with the length.
///
/// # Examples
///
/// ```
/// use fmeter_ir::SharedVec;
///
/// let mut a = SharedVec::new();
/// a.push(String::from("kept"));
/// let b = a.clone();
/// a.push(String::from("new"));
/// assert_eq!((a.len(), b.len()), (2, 1));
/// assert!(std::ptr::eq(a.get(0).unwrap(), b.get(0).unwrap()));
/// ```
#[derive(Debug)]
pub struct SharedVec<T> {
    chunks: Vec<Arc<Vec<Arc<T>>>>,
    len: usize,
}

impl<T> SharedVec<T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        SharedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector holds no element.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value`.
    pub fn push(&mut self, value: T) {
        self.push_shared(Arc::new(value));
    }

    /// Appends an element a clone may hold too.
    fn push_shared(&mut self, value: Arc<T>) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(value),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(value);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// The element at `index`, if in range.
    pub fn get(&self, index: usize) -> Option<&T> {
        let chunk = self.chunks.get(index / CHUNK)?;
        chunk.get(index % CHUNK).map(|e| &**e)
    }

    /// Iterates over the elements in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().map(|e| &**e))
    }

    /// Replaces the element at `index`; clones keep the old one. Copies
    /// the pointers of the one chunk that holds it when a clone shares
    /// that chunk.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn set(&mut self, index: usize, value: T) {
        Arc::make_mut(&mut self.chunks[index / CHUNK])[index % CHUNK] = Arc::new(value);
    }

    /// Keeps the elements whose index `keep` accepts, in order. The
    /// survivors stay shared with every clone: pointers move, elements
    /// do not.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        let old = std::mem::take(self);
        for (i, element) in old.chunks.iter().flat_map(|c| c.iter()).enumerate() {
            if keep(i) {
                self.push_shared(element.clone());
            }
        }
    }

    /// Drops every element (clones keep theirs).
    pub(crate) fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }
}

impl<T> Default for SharedVec<T> {
    fn default() -> Self {
        SharedVec::new()
    }
}

impl<T> std::ops::Index<usize> for SharedVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.chunks[index / CHUNK][index % CHUNK]
    }
}

// Not derived: sharing needs no `T: Clone`.
impl<T> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        SharedVec {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<T> FromIterator<T> for SharedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = SharedVec::new();
        for value in iter {
            out.push(value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_across_chunk_boundaries() {
        let v: SharedVec<usize> = (0..3 * CHUNK + 5).collect();
        assert_eq!(v.len(), 3 * CHUNK + 5);
        assert_eq!(v.get(0), Some(&0));
        assert_eq!(v.get(CHUNK), Some(&CHUNK));
        assert_eq!(v.get(3 * CHUNK + 4), Some(&(3 * CHUNK + 4)));
        assert_eq!(v.get(3 * CHUNK + 5), None);
        assert!(v.iter().copied().eq(0..3 * CHUNK + 5));
    }

    #[test]
    fn clones_share_elements_and_diverge_on_push() {
        let mut a: SharedVec<String> = (0..CHUNK + 3).map(|i| i.to_string()).collect();
        let b = a.clone();
        a.push("tail".to_string());
        assert_eq!(b.len(), CHUNK + 3);
        assert_eq!(a.len(), CHUNK + 4);
        assert_eq!(b.get(CHUNK + 3), None);
        for i in 0..b.len() {
            assert!(std::ptr::eq(a.get(i).unwrap(), b.get(i).unwrap()));
        }
        // Full chunks stay shared as chunks, not only as elements.
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        a.clear();
        assert!(a.is_empty());
        assert_eq!(b.get(1).map(String::as_str), Some("1"));
    }

    #[test]
    fn set_and_retain_leave_clones_and_survivors_alone() {
        let mut a: SharedVec<String> = (0..2 * CHUNK + 3).map(|i| i.to_string()).collect();
        let b = a.clone();
        a.set(CHUNK + 1, "new".to_string());
        assert_eq!(a[CHUNK + 1], "new");
        assert_eq!(b[CHUNK + 1], (CHUNK + 1).to_string());
        // Only the chunk holding the replaced element was copied.
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        assert!(!Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        a.retain(|i| i % 2 == 1);
        assert_eq!(a.len(), CHUNK + 1);
        assert_eq!(b.len(), 2 * CHUNK + 3);
        assert!(std::ptr::eq(&a[0], &b[1]));
        assert!(std::ptr::eq(&a[CHUNK], &b[2 * CHUNK + 1]));
        assert_eq!(a[CHUNK / 2], "new");
    }
}
