//! A single inference request.

use papi_kv::PrefixHint;
use serde::{Deserialize, Serialize};

/// One user request: a prompt of `input_len` tokens that will generate
/// `output_len` tokens before emitting `<|eos|>`.
///
/// Output lengths are a property of the *workload* (the model decides
/// when to stop); the serving system cannot observe them in advance —
/// which is exactly why runtime RLP is unpredictable (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Request {
    /// Request identifier.
    pub id: u64,
    /// Prompt length in tokens.
    pub input_len: u64,
    /// Tokens the request will generate before finishing.
    pub output_len: u64,
    /// Shareable-prefix description, when the leading prompt tokens are
    /// common with other requests (a shared system prompt, or the
    /// accumulated context of a multi-turn conversation). `None` means
    /// the prompt is entirely private.
    pub prefix: Option<PrefixHint>,
}

impl Request {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if either length is zero (the paper's serving model always
    /// has a prompt and generates at least the first token).
    #[track_caller]
    pub fn new(id: u64, input_len: u64, output_len: u64) -> Self {
        assert!(
            input_len > 0 && output_len > 0,
            "request lengths must be positive"
        );
        Self {
            id,
            input_len,
            output_len,
            prefix: None,
        }
    }

    /// Attaches a shareable-prefix hint.
    ///
    /// # Panics
    ///
    /// Panics if the hint claims more reusable tokens than the prompt
    /// holds, or more publishable tokens than the final context will.
    #[track_caller]
    pub(crate) fn with_prefix(mut self, prefix: PrefixHint) -> Self {
        assert!(
            prefix.reuse_tokens <= self.input_len,
            "prefix reuse {} exceeds the {}-token prompt",
            prefix.reuse_tokens,
            self.input_len
        );
        assert!(
            prefix.publish_tokens <= self.total_len(),
            "prefix publish {} exceeds the {}-token final context",
            prefix.publish_tokens,
            self.total_len()
        );
        self.prefix = Some(prefix);
        self
    }

    /// Total sequence length once complete (KV-cache footprint in
    /// tokens).
    pub(crate) fn total_len(&self) -> u64 {
        self.input_len + self.output_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_len_sums() {
        let r = Request::new(1, 100, 50);
        assert_eq!(r.total_len(), 150);
        assert_eq!(r.prefix, None);
    }

    #[test]
    fn prefix_hint_attaches_within_bounds() {
        let hint = PrefixHint {
            key: 9,
            reuse_tokens: 60,
            publish_tokens: 150,
        };
        let r = Request::new(1, 100, 50).with_prefix(hint);
        assert_eq!(r.prefix, Some(hint));
    }

    #[test]
    #[should_panic(expected = "exceeds the 100-token prompt")]
    fn oversized_reuse_rejected() {
        Request::new(1, 100, 50).with_prefix(PrefixHint {
            key: 1,
            reuse_tokens: 101,
            publish_tokens: 0,
        });
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_output_rejected() {
        Request::new(1, 10, 0);
    }
}
