//! Erasure-coded fragments.

use bytes::Bytes;

/// Index of a fragment within its object version's code word.
///
/// Fragments `0..k` are *data* fragments (the value striped in order);
/// fragments `k..n` are *parity* fragments. Pahoehoe's default policy is
/// `(k = 4, n = 12)`, so indices fit comfortably in a byte.
pub type FragmentIndex = u8;

/// One erasure-coded fragment of an object version.
///
/// Fragments are cheap to clone: the payload is a reference-counted
/// [`Bytes`] buffer, which matters in simulation where the same fragment is
/// "sent" to many servers.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Fragment {
    index: FragmentIndex,
    data: Bytes,
}

impl Fragment {
    /// Creates a fragment with the given code-word index and payload.
    pub fn new(index: FragmentIndex, data: impl Into<Bytes>) -> Self {
        Fragment {
            index,
            data: data.into(),
        }
    }

    /// The fragment's index within the code word.
    pub fn index(&self) -> FragmentIndex {
        self.index
    }

    /// The fragment payload.
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the payload is empty (possible for zero-length values).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl std::fmt::Debug for Fragment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fragment")
            .field("index", &self.index)
            .field("len", &self.data.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let f = Fragment::new(3, vec![1, 2, 3]);
        assert_eq!(f.index(), 3);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert_eq!(&f.data()[..], &[1, 2, 3]);
    }

    #[test]
    fn empty_fragment() {
        let f = Fragment::new(0, Vec::new());
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn clones_share_payload() {
        let f = Fragment::new(1, vec![9; 1024]);
        let g = f.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(f.data().as_ptr(), g.data().as_ptr());
    }

    #[test]
    fn debug_shows_index_and_len() {
        let f = Fragment::new(7, vec![0; 42]);
        let s = format!("{f:?}");
        assert!(s.contains("index: 7") && s.contains("len: 42"), "{s}");
    }
}
