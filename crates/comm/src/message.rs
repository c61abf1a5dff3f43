//! Message envelopes: source rank + tag + type-erased payload.

use std::any::Any;

/// Message tag; every value is free for user traffic.
pub type Tag = u32;

/// A message in flight: source, tag, and a type-erased `Send` payload.
pub struct Envelope {
    /// Sending rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Type-erased payload; downcast on receive.
    pub payload: Box<dyn Any + Send>,
}

impl Envelope {
    /// Wraps a value into an envelope.
    pub fn new<T: Send + 'static>(src: usize, tag: Tag, value: T) -> Self {
        Self { src, tag, payload: Box::new(value) }
    }

    /// True when source and tag match the (optional) selectors.
    pub fn matches(&self, src: Option<usize>, tag: Option<Tag>) -> bool {
        src.is_none_or(|s| s == self.src) && tag.is_none_or(|t| t == self.tag)
    }

    /// Attempts to take the payload as `T`; returns the envelope back on
    /// type mismatch so it can be re-queued or reported.
    pub fn downcast<T: 'static>(self) -> Result<T, Envelope> {
        match self.payload.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(payload) => Err(Envelope { src: self.src, tag: self.tag, payload }),
        }
    }
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope")
            .field("src", &self.src)
            .field("tag", &self.tag)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_selectors() {
        let e = Envelope::new(2, 7, 42u32);
        assert!(e.matches(None, None));
        assert!(e.matches(Some(2), None));
        assert!(e.matches(None, Some(7)));
        assert!(e.matches(Some(2), Some(7)));
        assert!(!e.matches(Some(1), Some(7)));
        assert!(!e.matches(Some(2), Some(8)));
    }

    #[test]
    fn downcast_success_and_failure() {
        let e = Envelope::new(0, 1, String::from("hi"));
        let e = e.downcast::<u32>().unwrap_err(); // wrong type: envelope back
        assert_eq!(e.src, 0);
        assert_eq!(e.downcast::<String>().unwrap(), "hi");
    }
}
