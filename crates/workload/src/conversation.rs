//! Prefix-aware request populations: shared system prompts and
//! multi-turn conversations.
//!
//! The plain [`DatasetKind`] populations draw every prompt
//! independently, so no two requests can share KV state. Real serving
//! traffic is the opposite: deployments pin one system prompt in front
//! of every request, and chat turns resend the whole accumulated
//! conversation as context. A [`ConversationDataset`] generates that
//! structure and stamps each request with the [`PrefixHint`] the paged
//! serving engine's prefix cache keys on:
//!
//! - **Shared system prompt** (`turns == 1`): every request's prompt
//!   starts with the same `system_prompt_tokens`, published under one
//!   fleet-wide cache key.
//! - **Multi-turn conversations** (`turns > 1`): requests are grouped
//!   into conversations; turn *k*'s prompt is the system prompt plus
//!   every earlier turn's prompt-and-response, published under the
//!   conversation's key so turn *k + 1* forks it instead of
//!   re-prefilling. (Cross-conversation sharing of the system prompt is
//!   not modelled in this mode — keys are single-level.)

use crate::dataset::DatasetKind;
use crate::request::Request;
use papi_kv::PrefixHint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// A conversation-structured request population over a base length
/// distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConversationDataset {
    /// Length distributions for per-turn user messages and responses.
    pub base: DatasetKind,
    /// Tokens of the system prompt shared by every conversation.
    pub system_prompt_tokens: u64,
    /// Turns per conversation (1 = independent requests that share only
    /// the system prompt).
    pub turns: usize,
}

impl ConversationDataset {
    /// A multi-turn chat population.
    ///
    /// # Panics
    ///
    /// Panics if `turns` is zero.
    #[track_caller]
    pub fn multi_turn(base: DatasetKind, system_prompt_tokens: u64, turns: usize) -> Self {
        assert!(turns > 0, "a conversation needs at least one turn");
        Self {
            base,
            system_prompt_tokens,
            turns,
        }
    }

    /// Generates `n` requests with a seeded RNG (fully reproducible).
    ///
    /// Requests are emitted turn-major — turn 0 of every conversation,
    /// then turn 1, … — so under any monotone arrival process a
    /// conversation's turn *k + 1* arrives well after turn *k* (the
    /// open-loop stand-in for think time between turns).
    pub(crate) fn generate(&self, seed: u64, n: usize) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ed_270e_ca11_b0a7);
        let dist = self.base.distribution();
        let conversations = n.div_ceil(self.turns).max(1);
        // Sample every conversation's full script up front, in a fixed
        // order, so the population is independent of emission order.
        let scripts: Vec<Vec<(u64, u64)>> = (0..conversations)
            .map(|_| {
                (0..self.turns)
                    .map(|_| (dist.sample_input(&mut rng), dist.sample_output(&mut rng)))
                    .collect()
            })
            .collect();

        let mut requests = Vec::with_capacity(n);
        'emit: for turn in 0..self.turns {
            for (conv, script) in scripts.iter().enumerate() {
                if requests.len() == n {
                    break 'emit;
                }
                let (user_tokens, output_len) = script[turn];
                let context_before: u64 = self.system_prompt_tokens
                    + script[..turn].iter().map(|&(u, o)| u + o).sum::<u64>();
                let input_len = context_before + user_tokens;
                let mut request = Request::new(requests.len() as u64, input_len, output_len);
                request = if self.turns == 1 {
                    // One fleet-wide key: every request shares (and
                    // republishes) the system prompt.
                    if self.system_prompt_tokens > 0 {
                        request.with_prefix(PrefixHint {
                            key: 0,
                            reuse_tokens: self.system_prompt_tokens,
                            publish_tokens: self.system_prompt_tokens,
                        })
                    } else {
                        request
                    }
                } else {
                    let last_turn = turn + 1 == self.turns;
                    request.with_prefix(PrefixHint {
                        key: 1 + conv as u64,
                        // Turn 0 opens the conversation: nothing is
                        // cached under its key yet.
                        reuse_tokens: if turn == 0 { 0 } else { context_before },
                        // The final turn's context is never extended —
                        // publishing it would only pollute the cache.
                        publish_tokens: if last_turn { 0 } else { input_len + output_len },
                    })
                };
                requests.push(request);
            }
        }
        requests
    }

    /// Display label for reports and sweeps.
    pub(crate) fn label(&self) -> String {
        if self.turns == 1 {
            format!("{}+sys{}", self.base, self.system_prompt_tokens)
        } else {
            format!(
                "{}-chat{}x-sys{}",
                self.base, self.turns, self.system_prompt_tokens
            )
        }
    }
}

impl core::fmt::Display for ConversationDataset {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_system_prompt_stamps_one_key() {
        let ds = ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 1);
        let requests = ds.generate(7, 40);
        assert_eq!(requests.len(), 40);
        for r in &requests {
            let hint = r.prefix.expect("every request shares the system prompt");
            assert_eq!(hint.key, 0);
            assert_eq!(hint.reuse_tokens, 256);
            assert_eq!(hint.publish_tokens, 256);
            assert!(r.input_len > 256, "prompt contains the system prefix");
        }
    }

    #[test]
    fn multi_turn_contexts_accumulate_and_chain() {
        let ds = ConversationDataset::multi_turn(DatasetKind::GeneralQa, 128, 3);
        let n = 12; // 4 conversations × 3 turns
        let requests = ds.generate(3, n);
        assert_eq!(requests.len(), n);
        // Turn-major emission: ids 0..3 are turn 0, 4..7 turn 1, …
        for conv in 0..4usize {
            let turn0 = &requests[conv];
            let turn1 = &requests[4 + conv];
            let turn2 = &requests[8 + conv];
            let key = turn0.prefix.unwrap().key;
            assert_eq!(key, 1 + conv as u64);
            assert_eq!(turn1.prefix.unwrap().key, key);
            assert_eq!(turn2.prefix.unwrap().key, key);
            // Turn 0 has nothing to reuse; later turns reuse exactly
            // what the previous turn publishes.
            assert_eq!(turn0.prefix.unwrap().reuse_tokens, 0);
            assert_eq!(
                turn0.prefix.unwrap().publish_tokens,
                turn0.total_len(),
                "published context is the full prompt + response"
            );
            assert_eq!(turn1.prefix.unwrap().reuse_tokens, turn0.total_len());
            assert_eq!(turn2.prefix.unwrap().reuse_tokens, turn1.total_len());
            // The final turn opts out of publishing.
            assert_eq!(turn2.prefix.unwrap().publish_tokens, 0);
            // Contexts grow monotonically.
            assert!(turn1.input_len > turn0.input_len);
            assert!(turn2.input_len > turn1.input_len);
        }
    }

    #[test]
    fn generation_is_deterministic_and_truncates() {
        let ds = ConversationDataset::multi_turn(DatasetKind::CreativeWriting, 64, 4);
        assert_eq!(ds.generate(11, 30), ds.generate(11, 30));
        assert_ne!(ds.generate(11, 30), ds.generate(12, 30));
        assert_eq!(ds.generate(11, 30).len(), 30); // 8 convs, cut mid-turn
    }

    #[test]
    fn zero_system_single_turn_has_no_prefix() {
        let ds = ConversationDataset::multi_turn(DatasetKind::GeneralQa, 0, 1);
        assert!(ds.generate(1, 8).iter().all(|r| r.prefix.is_none()));
    }

    #[test]
    fn labels() {
        assert_eq!(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 512, 1).label(),
            "general-qa+sys512"
        );
        assert_eq!(
            ConversationDataset::multi_turn(DatasetKind::GeneralQa, 256, 4).label(),
            "general-qa-chat4x-sys256"
        );
    }
}
