//! Counter-based RNG stream derivation.
//!
//! Every piece of per-client identity in the testbed — data shard, base
//! speed, device-speed process, profiler sample indices — is a pure
//! function of `(master seed, domain, client id)`. The key is produced by
//! [`mix`], a SplitMix64-style finalizer over the three inputs, and seeds a
//! dedicated [`StdRng`] stream per `(domain, client)` pair. Because no
//! stream is ever shared across clients, derivations are *query-order
//! independent*: hydrating clients in any order, any number of times, on
//! any number of threads yields byte-identical state. This is the same
//! discipline [`crate::faults`] uses for its `(round, client)` fault draws.
//!
//! Domain constants occupy the slot the fault plan uses for the round
//! index; they are large 64-bit tags so they can never collide with a
//! realistic round number.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Stream domain: a client's data-shard derivation.
pub const DOMAIN_SHARD: u64 = 0x5348_4152_4421_7A01;
/// Stream domain: a client's FedScale-like base-speed factor.
pub const DOMAIN_SPEED: u64 = 0x5350_4545_4421_7A02;
/// Stream domain: a client's device-speed (fast/slow toggling) process.
pub const DOMAIN_DEVICE: u64 = 0x4445_5649_4321_7A03;
/// Stream domain: a client's profiler sample-index draws.
pub const DOMAIN_PROFILER: u64 = 0x5052_4F46_4921_7A04;
/// Stream domain: a client's per-round local-training RNG base seed.
pub const DOMAIN_CLIENT: u64 = 0x434C_4945_4E21_7A05;
/// Stream domain: a cohort member's placement onto a shard process
/// (`ShardAssignment::Mixed`). Placement is trajectory-neutral, but it still
/// gets its own domain so a hash seed equal to the experiment seed cannot
/// correlate placement with the data partition.
pub const DOMAIN_TOPOLOGY: u64 = 0x544F_504F_4C21_7A06;
/// Stream domain: the shard transport's per-frame fault draws
/// (`TransportFaultPlan`). Transport faults are trajectory-neutral by
/// construction (the supervision layer recovers every injected fault), but
/// the schedule still needs its own domain so a transport seed equal to the
/// experiment seed cannot correlate frame faults with anything the
/// trajectory depends on.
pub const DOMAIN_TRANSPORT: u64 = 0x5452_414E_5321_7A07;

/// SplitMix64-style mixing of a master seed with two stream coordinates
/// (domain/round and client id). Shared by every counter-derived stream in
/// the workspace, including the fault plan's `(seed, round, client)` draws.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(b.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh RNG positioned at the start of the `(seed, domain, client)`
/// stream. Two calls with the same key always return identical streams.
pub fn client_rng(seed: u64, domain: u64, client: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, domain, client))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn mix_separates_every_coordinate() {
        let base = mix(1, 2, 3);
        assert_ne!(base, mix(2, 2, 3));
        assert_ne!(base, mix(1, 3, 3));
        assert_ne!(base, mix(1, 2, 4));
        // Swapping coordinates must not alias.
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
    }

    #[test]
    fn domains_never_alias_for_the_same_client() {
        let domains = [
            DOMAIN_SHARD,
            DOMAIN_SPEED,
            DOMAIN_DEVICE,
            DOMAIN_PROFILER,
            DOMAIN_CLIENT,
            DOMAIN_TOPOLOGY,
            DOMAIN_TRANSPORT,
        ];
        for (i, &a) in domains.iter().enumerate() {
            for &b in &domains[i + 1..] {
                assert_ne!(mix(42, a, 7), mix(42, b, 7));
            }
        }
    }

    #[test]
    fn client_rng_is_query_order_independent() {
        // Drawing client 5's stream before or after client 9's must not
        // change either stream.
        let mut a5 = client_rng(9, DOMAIN_DEVICE, 5);
        let mut a9 = client_rng(9, DOMAIN_DEVICE, 9);
        let first5: u64 = a5.gen();
        let first9: u64 = a9.gen();

        let mut b9 = client_rng(9, DOMAIN_DEVICE, 9);
        let again9: u64 = b9.gen();
        let mut b5 = client_rng(9, DOMAIN_DEVICE, 5);
        let again5: u64 = b5.gen();
        assert_eq!(first5, again5);
        assert_eq!(first9, again9);
    }
}
