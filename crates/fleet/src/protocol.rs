//! The `vi-noc-fleet-v3` wire protocol: line-delimited JSON messages over a
//! local TCP stream.
//!
//! Every message is one compact JSON object on one line, with a `type`
//! member naming its variant, read and written through
//! [`vi_noc_core::json`]. Multi-line job payloads (scenario documents)
//! cross the wire as JSON strings — the writer escapes the newlines — so
//! framing stays trivially line-based.
//!
//! Frontier entries inside a `delta` are embedded as raw JSON values: the
//! compact single-line objects of [`vi_noc_sweep::RangeDelta`] entries (the
//! checkpoint format's frontier entries). A worker writes them as the text
//! [`vi_noc_sweep::run_deltas`] produced, without parsing them
//! ([`write_delta`] on a `Delta<&str>`); the coordinator parses them into
//! [`Value`]s ([`parse_message`]) and re-serializes each with the
//! parse→write fixed-point writer ([`Value::write`]). Both ends therefore
//! agree on every entry's bytes, which is what the coordinator's
//! byte-identity guarantee rests on. The `delta` members have one writer,
//! shared by both entry forms, so the text path cannot drift from
//! [`write_message`].
//!
//! A worker sends only the entries of a delta that no entry the
//! coordinator has already acked from it for the same job payload
//! dominates (see [`crate::worker`]); the message shape is the same.
//!
//! Every peer is a worker (`W`); jobs are submitted inside the coordinator
//! (`C`) process, through [`crate::FleetHandle::submit`]. Conversation
//! shape:
//!
//! ```text
//! W→C  hello{protocol}
//! W→C  request
//! C→W  lease{..} | shutdown
//! W→C  delta{..} | refuse{..}
//! C→W  ack{lease_id, done} | reject{msg}
//! ```
//!
//! The coordinator holds a `request` until it can answer with a lease, or
//! with `shutdown` once it stops: an idle worker never polls.
//!
//! Parse errors are pinned by `crates/fleet/tests/corpus.rs`: every
//! malformed message in the committed corpus must keep failing with its
//! exact recorded message.

use vi_noc_core::fnv1a64;
use vi_noc_core::json::{self, Obj, Value};
use vi_noc_sweep::{stats_from_value, write_stats, SweepStats};

/// Protocol identifier exchanged in `hello` messages. Bump on any wire
/// change; a coordinator refuses peers speaking anything else.
pub const PROTOCOL: &str = "vi-noc-fleet-v3";

/// One streamed checkpoint delta: the evaluation of range positions
/// `[from, from + taken)` of a lease — counters plus the *local* Pareto
/// survivors of exactly that interval that can still reach the frontier
/// (see [`crate::worker`]). Deltas of one lease are disjoint by
/// construction, so the coordinator folds each exactly once.
///
/// `E` is how the entries are held: parsed [`Value`]s (what
/// [`parse_message`] returns), or their compact JSON text (what a worker
/// sends through [`write_delta`]). Both serialize to the same bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta<E = Value> {
    /// The lease this delta belongs to.
    pub lease_id: u64,
    /// Fingerprint of the grid the worker evaluated against
    /// ([`grid_fingerprint`]); a mismatch means descriptor skew.
    pub grid_fp: String,
    /// First range position the delta covers.
    pub from: u64,
    /// Number of range positions the delta covers.
    pub taken: u64,
    /// Evaluation counters of exactly this interval.
    pub stats: SweepStats,
    /// Frontier entries surviving within this interval.
    pub entries: Vec<E>,
}

impl<E> Delta<E> {
    /// The one writer of a `delta`'s members: `entry` appends one entry.
    fn write_members(&self, o: &mut Obj, entry: impl FnMut(&mut String, &E)) {
        o.str("type", "delta")
            .num("lease_id", self.lease_id)
            .str("grid_fp", &self.grid_fp)
            .num("from", self.from)
            .num("taken", self.taken);
        write_stats(o.key("stats"), &self.stats);
        json::array(o.key("entries"), &self.entries, entry);
    }
}

/// A lease offer: evaluate chain ids `[start, end)` of the job's grid,
/// resuming at range position `from`, streaming a delta every
/// `checkpoint_every` positions.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Coordinator-unique lease id; echoed in every delta.
    pub lease_id: u64,
    /// The job payload (a scenario document for the CLI fleet; resolvers
    /// decide what it means).
    pub job: String,
    /// Fingerprint the worker must reproduce from its resolved grid.
    pub grid_fp: String,
    /// First chain id of the leased range (inclusive).
    pub start: u64,
    /// One past the last chain id of the leased range.
    pub end: u64,
    /// Range position to resume from (0 for a fresh lease; the acked
    /// watermark for a re-issued one).
    pub from: u64,
    /// Delta granularity in range positions.
    pub checkpoint_every: u64,
}

/// Every message of the protocol. See the module docs for the conversation
/// shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Worker: connection opener, carrying the protocol version.
    Hello,
    /// Coordinator → peer: the request failed; the connection is done.
    Reject {
        /// Human-readable reason.
        message: String,
    },
    /// Worker: give me a lease (held until one is free, or shutdown).
    Request,
    /// Coordinator → worker: a lease offer.
    Lease(Lease),
    /// Coordinator → worker: no more work will ever arrive; disconnect.
    Shutdown,
    /// Worker: a checkpoint delta of its active lease.
    Delta(Delta),
    /// Coordinator → worker: delta folded; `done` is the new watermark.
    Ack {
        /// The lease the ack belongs to.
        lease_id: u64,
        /// Range positions folded so far (`from + taken` of the delta).
        done: u64,
    },
    /// Worker: it cannot evaluate the lease (e.g. the payload resolves to
    /// a different grid than the coordinator's). Fails the whole job —
    /// descriptor skew is never recoverable by retrying.
    Refuse {
        /// The refused lease.
        lease_id: u64,
        /// Why the worker refused.
        message: String,
    },
}

/// Serializes a message as one line (no trailing newline; the transport
/// appends it).
pub fn write_message(m: &Message) -> String {
    let mut s = String::new();
    let mut o = Obj::new(&mut s);
    match m {
        Message::Hello => {
            o.str("type", "hello").str("protocol", PROTOCOL);
        }
        Message::Reject { message } => {
            o.str("type", "reject").str("message", message);
        }
        Message::Request => {
            o.str("type", "request");
        }
        Message::Lease(l) => {
            o.str("type", "lease")
                .num("lease_id", l.lease_id)
                .str("job", &l.job)
                .str("grid_fp", &l.grid_fp)
                .num("start", l.start)
                .num("end", l.end)
                .num("from", l.from)
                .num("checkpoint_every", l.checkpoint_every);
        }
        Message::Shutdown => {
            o.str("type", "shutdown");
        }
        Message::Delta(d) => d.write_members(&mut o, |out, e| e.write(out)),
        Message::Ack { lease_id, done } => {
            o.str("type", "ack")
                .num("lease_id", *lease_id)
                .num("done", *done);
        }
        Message::Refuse { lease_id, message } => {
            o.str("type", "refuse")
                .num("lease_id", *lease_id)
                .str("message", message);
        }
    }
    o.end();
    s
}

/// Serializes a `delta` whose entries are already compact JSON text — how
/// a worker sends the entries [`vi_noc_sweep::run_deltas`] wrote without
/// parsing them. The line is byte-identical to [`write_message`] of the
/// same delta with its entries parsed, because the entry writers are
/// parse→write fixed points.
pub fn write_delta(d: &Delta<&str>) -> String {
    let mut s = String::new();
    let mut o = Obj::new(&mut s);
    d.write_members(&mut o, |out, e| json::raw(out, e));
    o.end();
    s
}

/// Parses one message line.
///
/// # Errors
///
/// Malformed JSON (`JSON error at byte N: ...`), a missing or unknown
/// `type`, and per-variant shape violations — each with the pinned message
/// the protocol corpus records.
pub fn parse_message(line: &str) -> Result<Message, String> {
    let mut v = json::parse(line).map_err(|e| e.to_string())?;
    let ty = v.str_member("type", "message")?;
    match ty {
        "hello" => {
            let protocol = v.str_member("protocol", "hello")?;
            if protocol != PROTOCOL {
                return Err(format!("hello: protocol '{protocol}' is not '{PROTOCOL}'"));
            }
            Ok(Message::Hello)
        }
        "reject" => Ok(Message::Reject {
            message: v.str_member("message", "reject")?.to_string(),
        }),
        "request" => Ok(Message::Request),
        "lease" => Ok(Message::Lease(Lease {
            lease_id: v.u64_member("lease_id", "lease")?,
            job: v.str_member("job", "lease")?.to_string(),
            grid_fp: v.str_member("grid_fp", "lease")?.to_string(),
            start: v.u64_member("start", "lease")?,
            end: v.u64_member("end", "lease")?,
            from: v.u64_member("from", "lease")?,
            checkpoint_every: v.u64_member("checkpoint_every", "lease")?,
        })),
        "shutdown" => Ok(Message::Shutdown),
        "delta" => {
            let lease_id = v.u64_member("lease_id", "delta")?;
            let grid_fp = v.str_member("grid_fp", "delta")?.to_string();
            let from = v.u64_member("from", "delta")?;
            let taken = v.u64_member("taken", "delta")?;
            let stats = stats_from_value(v.member("stats", "delta")?)?;
            // Moved out, not cloned: the entries are most of the line.
            let entries = match v.take_member("entries", "delta")? {
                Value::Arr(es) => es,
                _ => return Err("delta: 'entries' is not an array".to_string()),
            };
            Ok(Message::Delta(Delta {
                lease_id,
                grid_fp,
                from,
                taken,
                stats,
                entries,
            }))
        }
        "ack" => Ok(Message::Ack {
            lease_id: v.u64_member("lease_id", "ack")?,
            done: v.u64_member("done", "ack")?,
        }),
        "refuse" => Ok(Message::Refuse {
            lease_id: v.u64_member("lease_id", "refuse")?,
            message: v.str_member("message", "refuse")?.to_string(),
        }),
        other => Err(format!("message: unknown type '{other}'")),
    }
}

/// 64-bit FNV-1a fingerprint of a serialized grid descriptor, as 16 lower
/// hex digits. Workers reproduce it from their own resolved grid; a
/// mismatch anywhere in the conversation means the coordinator and worker
/// disagree about what is being swept, and fails fast instead of folding
/// entries of the wrong grid.
pub fn grid_fingerprint(desc_json: &str) -> String {
    format!("{:016x}", fnv1a64(desc_json.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vi_noc_core::SynthesisConfig;
    use vi_noc_soc::{benchmarks, partition};
    use vi_noc_sweep::{run_deltas, ChainRange, GridConfig, RangeDelta, SweepGrid};

    fn round_trip(m: Message) {
        let line = write_message(&m);
        assert!(!line.contains('\n'), "one line: {line}");
        assert_eq!(parse_message(&line).unwrap(), m, "{line}");
    }

    #[test]
    fn every_variant_round_trips_through_the_wire() {
        round_trip(Message::Hello);
        round_trip(Message::Reject {
            message: "no \"such\" job".to_string(),
        });
        round_trip(Message::Request);
        round_trip(Message::Lease(Lease {
            lease_id: 7,
            job: "{\"name\":\"x\",\n\"spec\":{}}\n".to_string(),
            grid_fp: "00ff00ff00ff00ff".to_string(),
            start: 32,
            end: 48,
            from: 3,
            checkpoint_every: 8,
        }));
        round_trip(Message::Shutdown);
        round_trip(Message::Delta(Delta {
            lease_id: 7,
            grid_fp: "00ff00ff00ff00ff".to_string(),
            from: 3,
            taken: 8,
            stats: SweepStats {
                chains: 8,
                inactive_chains: 0,
                feasible: 21,
                duplicates: 2,
                infeasible: 1,
            },
            entries: vec![json::parse("{\"ordinal\":4,\"power_mw\":1.5}").unwrap()],
        }));
        round_trip(Message::Ack {
            lease_id: 7,
            done: 11,
        });
        round_trip(Message::Refuse {
            lease_id: 7,
            message: "grid fingerprint mismatch".to_string(),
        });
    }

    #[test]
    fn delta_entry_bytes_survive_the_round_trip() {
        let entry = "{\"ordinal\":12,\"power_mw\":88.25,\"latency_cycles\":5.5,\"chain_id\":4,\
                     \"scale\":1,\"boosts\":[0,1],\"point\":{\"x\":[1,2,3]}}";
        let m = Message::Delta(Delta {
            lease_id: 1,
            grid_fp: "0".repeat(16),
            from: 0,
            taken: 4,
            stats: SweepStats::default(),
            entries: vec![json::parse(entry).unwrap()],
        });
        let line = write_message(&m);
        match parse_message(&line).unwrap() {
            Message::Delta(d) => assert_eq!(d.entries[0].to_json(), entry),
            other => panic!("not a delta: {other:?}"),
        }
    }

    #[test]
    fn a_worker_line_is_the_message_writer_line_for_every_real_delta() {
        // Every delta of a real d12 sweep, and one delta carrying all of
        // their entries: the line a worker writes from the entries' text
        // must be the bytes `write_message` writes for the parsed entries,
        // and must parse back to that message.
        let spec = benchmarks::d12_auto();
        let vi = partition::logical_partition(&spec, 4).unwrap();
        let cfg = SynthesisConfig::default();
        let grid_cfg = GridConfig {
            max_boost: 1,
            freq_scales: vec![1.0, 1.1],
            max_intermediate: 2,
        };
        let grid = SweepGrid::build(&spec, &vi, &cfg, &grid_cfg);
        let range = ChainRange::new(0, grid.num_chains()).unwrap();
        let mut deltas = Vec::new();
        let mut keep = |d: RangeDelta| {
            deltas.push(d);
            Ok(())
        };
        run_deltas(
            &spec,
            &vi,
            &grid,
            &cfg,
            range.chain_ids(),
            0,
            4,
            false,
            &mut keep,
        )
        .unwrap();
        let all = RangeDelta {
            from: 0,
            taken: range.len(),
            stats: SweepStats::default(),
            pruned_chains: 0,
            entries: deltas.iter().flat_map(|d| d.entries.clone()).collect(),
        };
        assert_eq!((deltas.len(), all.entries.len()), (40, 16));
        assert!(deltas.iter().any(|d| d.entries.is_empty()));

        for d in deltas.iter().chain([&all]) {
            let text = Delta {
                lease_id: 7,
                grid_fp: "00ff00ff00ff00ff".to_string(),
                from: d.from,
                taken: d.taken,
                stats: d.stats,
                entries: d.entries.iter().map(|(_, e)| e.as_str()).collect(),
            };
            let parsed = Message::Delta(Delta {
                lease_id: text.lease_id,
                grid_fp: text.grid_fp.clone(),
                from: text.from,
                taken: text.taken,
                stats: text.stats,
                entries: text
                    .entries
                    .iter()
                    .map(|e| json::parse(e).unwrap())
                    .collect(),
            });
            let line = write_delta(&text);
            assert_eq!(line, write_message(&parsed));
            assert_eq!(parse_message(&line).unwrap(), parsed);
        }
    }

    #[test]
    fn fingerprints_are_stable_and_discriminating() {
        // Pinned: FNV-1a 64 of the empty string and a known vector. If
        // these move, every committed corpus fixture's grid_fp is stale.
        assert_eq!(grid_fingerprint(""), "cbf29ce484222325");
        assert_eq!(grid_fingerprint("a"), "af63dc4c8601ec8c");
        assert_ne!(
            grid_fingerprint("{\"num_chains\":8}"),
            grid_fingerprint("{\"num_chains\":9}")
        );
    }

    #[test]
    fn parse_rejects_shape_violations_with_contexted_messages() {
        for (line, want) in [
            ("{", "JSON error at byte"),
            (
                "{\"protocol\":\"vi-noc-fleet-v3\"}",
                "message: missing 'type'",
            ),
            ("{\"type\":7}", "message: 'type' is not a string"),
            ("{\"type\":\"gossip\"}", "message: unknown type 'gossip'"),
            (
                "{\"type\":\"hello\",\"protocol\":\"v0\"}",
                "hello: protocol 'v0' is not 'vi-noc-fleet-v3'",
            ),
            (
                "{\"type\":\"hello\",\"protocol\":\"vi-noc-fleet-v2\",\"role\":\"submit\"}",
                "hello: protocol 'vi-noc-fleet-v2' is not 'vi-noc-fleet-v3'",
            ),
            (
                "{\"type\":\"submit\",\"job\":\"d12\"}",
                "message: unknown type 'submit'",
            ),
            (
                "{\"type\":\"result\",\"frontier\":\"\"}",
                "message: unknown type 'result'",
            ),
            ("{\"type\":\"wait\"}", "message: unknown type 'wait'"),
            (
                "{\"type\":\"ack\",\"lease_id\":1,\"done\":-2}",
                "ack: 'done' is not an unsigned integer",
            ),
        ] {
            let err = parse_message(line).unwrap_err();
            assert!(err.contains(want), "{line} -> {err}");
        }
    }
}
