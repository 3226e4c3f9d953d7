//! Reference-counted copy-on-write message payloads.
//!
//! Every byte buffer that crosses the rank⇄engine boundary — send data,
//! received data, collective contributions and results — is a [`Payload`]:
//! an immutable, atomically reference-counted `Vec<u8>`. Cloning one is a
//! refcount bump, so the same bytes can simultaneously sit in an engine's
//! in-flight payload table, a response awaiting delivery, the runtime's
//! replay log and any number of checkpoint images without ever being
//! copied. The single copy-on-write point is [`Payload::into_vec`]: the
//! last holder takes the allocation back for free, while a shared holder
//! pays the one clone that mutation actually requires.
//!
//! `Arc` (not `Rc`) so payloads — and the calls, responses, engines and
//! checkpoint images that hold them — stay `Send`.

use std::fmt;
use std::sync::Arc;

/// Immutable shared byte buffer (see module docs).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Payload(Arc<Vec<u8>>);

impl Payload {
    /// Wrap an owned buffer without copying.
    pub fn from_vec(data: Vec<u8>) -> Self {
        Payload(Arc::new(data))
    }

    /// An empty payload (no allocation is shared, but still cheap).
    pub fn empty() -> Self {
        Payload(Arc::new(Vec::new()))
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Take the bytes out. This is the only place a copy can happen: if
    /// the buffer is uniquely held the allocation is moved out; otherwise
    /// the data is cloned once, leaving the other holders untouched.
    pub fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| (*arc).clone())
    }

    /// Do the two payloads share one allocation? (Diagnostics/tests.)
    pub fn ptr_eq(a: &Payload, b: &Payload) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(data: Vec<u8>) -> Self {
        Payload::from_vec(data)
    }
}

impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Self {
        Payload::from_vec(data.to_vec())
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_and_into_vec_is_cow() {
        let p = Payload::from_vec(vec![1, 2, 3]);
        let q = p.clone();
        assert!(Payload::ptr_eq(&p, &q));
        // Shared: into_vec copies, the sibling is untouched.
        let v = p.into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        assert_eq!(q.as_slice(), &[1, 2, 3]);
        // Unique: into_vec moves the allocation (observable as no copy via
        // capacity-preserving round trip).
        let mut big = Vec::with_capacity(1 << 20);
        big.extend_from_slice(&[7u8; 16]);
        let ptr = big.as_ptr();
        let back = Payload::from_vec(big).into_vec();
        assert_eq!(back.as_ptr(), ptr);
    }
}
