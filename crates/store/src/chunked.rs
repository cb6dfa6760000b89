//! Copy-on-write chunked storage: the store's object and source tables.

use std::ops::Index;
use std::sync::Arc;

/// Elements per chunk: small enough that copying a chunk on write is cheap,
/// large enough that scans stay sequential and cloning the chunk list is a
/// few hundred pointer copies.
const CHUNK: usize = 64;

/// A growable array kept in fixed-size chunks that clones share. Cloning
/// copies one pointer per chunk; writing copies the chunk written to, and
/// only while another clone still shares it.
#[derive(Debug, Clone)]
pub(crate) struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> Chunked<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self[i])
    }

    /// Mutable access to element `i`, copying its chunk first if a clone
    /// shares it.
    pub(crate) fn get_mut(&mut self, i: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }

    pub(crate) fn push(&mut self, value: T) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
        }
        let last = self.chunks.last_mut().expect("a chunk with room exists");
        Arc::make_mut(last).push(value);
        self.len += 1;
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl<T> Index<usize> for Chunked<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl<T: Clone> FromIterator<T> for Chunked<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Chunked::default();
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
    fn clones_share_chunks_until_written() {
        let mut a: Chunked<String> = (0..150).map(|i| i.to_string()).collect();
        assert_eq!(a.len(), 150);
        assert_eq!(a[149], "149");
        assert_eq!(a.get(150), None);
        let b = a.clone();
        *a.get_mut(70) = "x".into();
        a.push("150".into());
        assert_eq!((a[70].as_str(), b[70].as_str()), ("x", "70"));
        assert_eq!((a.len(), b.len()), (151, 150));
        // Only the written chunk was copied; the first one is still shared.
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        assert!(!Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        assert_eq!(b.iter().count(), 150);
        let want: Vec<String> = (0..151)
            .map(|i| if i == 70 { "x".into() } else { i.to_string() })
            .collect();
        assert!(a.iter().eq(want.iter()));
    }
}
