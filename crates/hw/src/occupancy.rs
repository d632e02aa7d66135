//! The static occupancy check: does a schedule ever read an empty
//! register, write a full one, or drive data off the mesh?
//!
//! Shenjing's routers have no buffers, no flow control and no routing
//! logic (paper §III), and a `SEND` moves even a 0-valued spike: which
//! registers hold data when is a property of the program, not of the
//! data, and every timestep starts from empty network state. So [`check`]
//! walks one timestep once, over occupancy words alone, and the batched
//! engine ([`BatchChip`](crate::BatchChip)) carries payload only.
//!
//! The verdict of an accepted schedule is its [`Footprint`]: the planes
//! of every (tile, register file) the walk ever puts or fills. A checked
//! schedule reads a register only after writing it in the same timestep,
//! so those are the only registers it can observe, and a replica stores
//! payload for them alone.

use shenjing_core::{ArchSpec, Direction, Error, Result};

use crate::mesh::TileSlots;
use crate::neuron_core::check_banks;
use crate::ops::{AtomicOp, NeuronCoreOp, PsDst, PsRouterOp, PsSendSource, SpikeRouterOp};
use crate::plane::PlaneSet;
use crate::sched::{CycleOps, PortDst, PortOut, ScheduledOp};

/// A tile's register files (PS inputs, outputs, accumulation, ejection;
/// spike inputs, outputs; the IF state — membrane potentials and spike
/// buffers — that `SPIKE` writes and spike `SEND` reads), one occupancy
/// word per 64 planes each. The IF file has no occupancy rule: both ops
/// count as a [`Use::Fill`] of it, so it only gathers a footprint.
pub(crate) const PS_IN: usize = 0;
pub(crate) const PS_OUT: usize = 4;
pub(crate) const SUM: usize = 8;
pub(crate) const EJECT: usize = 9;
pub(crate) const SPIKE_IN: usize = 10;
pub(crate) const SPIKE_OUT: usize = 14;
pub(crate) const IF: usize = 18;
const FILES: usize = 19;

/// The registers a checked schedule can hold payload in: per live tile
/// slot and register file, the planes the walk ever puts or fills. Built
/// by [`check`]; [`Footprint::all`] names every register, the footprint of
/// a chip built without a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footprint {
    /// Plane words per file.
    words: usize,
    /// `[slot][file][word]`.
    bits: Vec<u64>,
}

impl Footprint {
    /// Every plane of every register file of `tiles` tiles.
    pub fn all(arch: &ArchSpec, tiles: usize) -> Footprint {
        let words = usize::from(arch.core_neurons).div_ceil(64);
        let file = (0..words).map(|w| PlaneSet::All.word(w, arch.core_neurons));
        let bits = file.cycle().take(tiles * FILES * words).collect();
        Footprint { words, bits }
    }

    /// Number of tile slots covered.
    pub fn tiles(&self) -> usize {
        self.bits.len() / (FILES * self.words)
    }

    /// The plane words of `files` on `slot`, `[file][word]`.
    pub(crate) fn files(&self, slot: usize, files: std::ops::Range<usize>) -> &[u64] {
        let at = |file| (slot * FILES + file) * self.words;
        &self.bits[at(files.start)..at(files.end)]
    }
}

/// What an op does to a register file on its planes: `Take` empties and
/// `Read` reads it, both needing it full; `Put` fills it, needing it
/// empty; `Fill` fills it whatever it held.
#[derive(Debug, Clone, Copy)]
enum Use {
    Take(usize),
    Read(usize),
    Put(usize),
    Fill(usize),
}

/// Checks one timestep of `entries` — an identity or compacted schedule
/// over the live tiles `slots` of an `arch` mesh — from empty network
/// state, in the oracle's ([`Chip`](crate::Chip)) order: inside an op the
/// lowest plane first and, on one plane, a missing source before a taken
/// destination; inside a transfer a link that leads nowhere before PS,
/// then spike, input contention.
///
/// Returns the schedule's [`Footprint`].
///
/// # Errors
///
/// The oracle's first error on a silent frame — variant, reason and
/// source cycle: [`Error::InvalidControl`] for a read of an empty
/// register or an invalid `ACC` bank mask, [`Error::InvalidSchedule`] for
/// contention and for data driven off the mesh or into an idle tile.
pub fn check(arch: &ArchSpec, slots: &TileSlots, entries: &[CycleOps]) -> Result<Footprint> {
    let words = usize::from(arch.core_neurons).div_ceil(64);
    let empty = Footprint { words, bits: vec![0; slots.len() * FILES * words] };
    let mut occ = Occupancy { arch, bits: empty.bits.clone(), footprint: empty };
    for entry in entries {
        entry.ops.iter().try_for_each(|s| occ.exec(s))?;
        occ.transfer(&entry.out_ports, entry.transfer_cycle)?;
    }
    Ok(occ.footprint)
}

struct Occupancy<'a> {
    arch: &'a ArchSpec,
    /// `[slot][file][word]`: the registers holding data now.
    bits: Vec<u64>,
    /// Every register `bits` has held so far.
    footprint: Footprint,
}

fn port(dir: Direction) -> usize {
    dir.encode() as usize
}

impl Occupancy<'_> {
    fn word(&mut self, tile: usize, file: usize, w: usize) -> &mut u64 {
        &mut self.bits[(tile * FILES + file) * self.footprint.words + w]
    }

    /// Fills the registers `sel` of word `w` of a file.
    fn fill(&mut self, tile: usize, file: usize, w: usize, sel: u64) {
        *self.word(tile, file, w) |= sel;
        self.footprint.bits[(tile * FILES + file) * self.footprint.words + w] |= sel;
    }

    /// Applies `uses` on `set` of `tile`, a word at a time, or returns the
    /// lowest plane at fault and the first use faulting there.
    fn apply(&mut self, tile: usize, set: &PlaneSet, uses: &[Option<Use>]) -> Option<(u16, Use)> {
        let uses = || uses.iter().flatten().copied();
        for w in 0..self.footprint.words {
            let sel = set.word(w, self.arch.core_neurons);
            let mut bad = |u: Use| match u {
                Use::Take(f) | Use::Read(f) => sel & !*self.word(tile, f, w),
                Use::Put(f) => sel & *self.word(tile, f, w),
                Use::Fill(_) => 0,
            };
            let fault = uses().fold(0, |any, u| any | bad(u));
            if fault != 0 {
                let bit = fault.trailing_zeros();
                let at = uses().find(|&u| bad(u) >> bit & 1 == 1).expect("a use faults there");
                return Some(((w * 64) as u16 + bit as u16, at));
            }
            for u in uses() {
                match u {
                    Use::Take(f) => *self.word(tile, f, w) &= !sel,
                    Use::Put(f) | Use::Fill(f) => self.fill(tile, f, w, sel),
                    Use::Read(_) => {}
                }
            }
        }
        None
    }

    /// One op's register effects, or the error the scalar router raises.
    fn exec(&mut self, s: &ScheduledOp) -> Result<()> {
        let fault = match &s.op {
            AtomicOp::Core(NeuronCoreOp::Acc { banks }) => {
                return check_banks(*banks, self.arch.sram_banks)
            }
            AtomicOp::Core(NeuronCoreOp::LdWt { .. }) => None,
            AtomicOp::Ps(op) => {
                let take = |d: &Direction| Some(Use::Take(PS_IN + port(*d)));
                let put = |dst: &PsDst| match dst {
                    PsDst::Port(d) => Some(Use::Put(PS_OUT + port(*d))),
                    PsDst::SpikingLogic => Some(Use::Put(EJECT)),
                };
                let uses = match op {
                    PsRouterOp::Sum { src, consec: true, .. } => [take(src), Some(Use::Read(SUM))],
                    PsRouterOp::Sum { src, consec: false, .. } => [take(src), Some(Use::Fill(SUM))],
                    PsRouterOp::Send { source: PsSendSource::LocalPs, dst, .. } => [None, put(dst)],
                    PsRouterOp::Send { dst, .. } => [Some(Use::Read(SUM)), put(dst)],
                    PsRouterOp::Bypass { src, dst, .. } => [take(src), put(dst)],
                };
                self.apply(s.tile, op.planes(), &uses)
            }
            AtomicOp::Spike(op) => {
                let put = |d: Direction| Some(Use::Put(SPIKE_OUT + port(d)));
                let uses = match op {
                    SpikeRouterOp::Spike { from_ps_router, .. } => {
                        [from_ps_router.then_some(Use::Take(EJECT)), Some(Use::Fill(IF))]
                    }
                    SpikeRouterOp::Send { dst, .. } => [Some(Use::Fill(IF)), put(*dst)],
                    SpikeRouterOp::Bypass { src, dst, .. } => {
                        [Some(Use::Take(SPIKE_IN + port(*src))), dst.and_then(put)]
                    }
                };
                self.apply(s.tile, op.planes(), &uses)
            }
        };
        let Some((p, at)) = fault else { return Ok(()) };
        let ps = |reason| Error::InvalidControl { component: "ps_router".into(), reason };
        let spike = |reason| Error::InvalidControl { component: "spike_router".into(), reason };
        let taken = |reason| Error::InvalidSchedule { cycle: s.cycle, reason };
        Err(match (&s.op, at) {
            (
                AtomicOp::Ps(op @ (PsRouterOp::Sum { src, .. } | PsRouterOp::Bypass { src, .. })),
                Use::Take(_),
            ) => ps(format!("{} on plane {p}: no data registered at port {src}", op.mnemonic())),
            (AtomicOp::Ps(op), Use::Read(_)) => {
                let sum = matches!(op, PsRouterOp::Sum { .. });
                let what = if sum { "SUM consec" } else { "SEND sum_buf" };
                ps(format!("{what} on plane {p}: empty accumulation register"))
            }
            (AtomicOp::Ps(_), Use::Put(EJECT)) => {
                taken(format!("ps eject register contention at plane {p}"))
            }
            (AtomicOp::Spike(SpikeRouterOp::Bypass { src, .. }), Use::Take(_)) => {
                spike(format!("BYPASS on plane {p}: no spike at port {src}"))
            }
            (AtomicOp::Spike(_), Use::Take(_)) => {
                spike(format!("SPIKE from PS router on plane {p}: no ejected sum"))
            }
            // What is left is a port write finding its register full.
            (op, _) => {
                let (dir, is_ps, _) = op.port_output().expect("a port-output producer");
                let noc = if is_ps { "ps" } else { "spike" };
                taken(format!("{noc} output register contention at port {dir}, plane {p}"))
            }
        })
    }

    /// The transfer phase over a move plan, taking every register before
    /// it puts any.
    fn transfer(&mut self, ports: &[PortOut], cycle: u64) -> Result<()> {
        let fail = |reason| Err(Error::InvalidSchedule { cycle, reason });
        for p in ports.iter().filter(|p| !matches!(p.dst, PortDst::Tile(_))) {
            for w in 0..self.footprint.words {
                let ps = *self.word(p.tile, PS_OUT + port(p.dir), w);
                let pending = ps | *self.word(p.tile, SPIKE_OUT + port(p.dir), w);
                if pending == 0 {
                    continue;
                }
                // The oracle probes planes in ascending order, PS before
                // spike within a plane, and fails on the first it finds.
                let at = format!("{} port {}", p.coord, p.dir);
                return fail(match p.dst {
                    PortDst::Idle => format!("data driven into an idle tile from {at}"),
                    _ if ps >> pending.trailing_zeros() & 1 == 1 => {
                        format!("ps data driven off the mesh edge at {at}")
                    }
                    _ => format!("spike driven off the mesh edge at {at}"),
                });
            }
        }
        for (out, into, noc) in [(PS_OUT, PS_IN, "ps"), (SPIKE_OUT, SPIKE_IN, "spike")] {
            for p in ports {
                let PortDst::Tile(dst) = p.dst else { continue };
                let (from, at) = (out + port(p.dir), p.dir.opposite());
                for w in 0..self.footprint.words {
                    let pending = std::mem::take(self.word(p.tile, from, w));
                    let held = pending & *self.word(dst, into + port(at), w);
                    if held != 0 {
                        let plane = w * 64 + held.trailing_zeros() as usize;
                        return fail(format!(
                            "{noc} input register contention at port {at}, plane {plane}"
                        ));
                    }
                    self.fill(dst, into + port(at), w, pending);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::Chip;
    use shenjing_core::CoreCoord;

    type Cycle = Vec<(CoreCoord, AtomicOp)>;

    /// Runs `cycles` (cycle 0 onward) on the scalar chip and through the
    /// check, and returns the one verdict both must give, with the
    /// footprint of an accepted schedule.
    fn on_chip_and_check(slots: &Arc<TileSlots>, cycles: &[Cycle]) -> Result<Footprint> {
        let arch = ArchSpec::tiny();
        let mut scalar = Chip::with_tiles(&arch, Arc::clone(slots)).unwrap();
        let oracle = (0..).zip(cycles).try_for_each(|(c, ops)| scalar.exec_cycle(c, ops));
        let entries: Vec<CycleOps> =
            (0..).zip(cycles).map(|(c, ops)| CycleOps::for_cycle(slots, c, ops).unwrap()).collect();
        let verdict = check(&arch, slots, &entries);
        assert_eq!(verdict.as_ref().map(|_| ()), oracle.as_ref().map(|_| ()));
        verdict
    }

    fn all(rows: u16, cols: u16) -> Arc<TileSlots> {
        Arc::new(TileSlots::all(rows, cols).unwrap())
    }

    fn planes(p: &[u16]) -> PlaneSet {
        PlaneSet::from_indices(p.iter().copied())
    }

    fn ps_send(source: PsSendSource, dst: PsDst, planes: PlaneSet) -> AtomicOp {
        AtomicOp::Ps(PsRouterOp::Send { source, dst, planes })
    }

    #[test]
    fn data_off_the_edge_is_an_error() {
        let send = ps_send(PsSendSource::LocalPs, PsDst::Port(Direction::North), planes(&[0]));
        let cycles = [vec![], vec![], vec![], vec![(CoreCoord::new(0, 0), send)]];
        let err = on_chip_and_check(&all(2, 2), &cycles).unwrap_err();
        assert!(matches!(err, Error::InvalidSchedule { cycle: 3, .. }), "{err}");
    }

    #[test]
    fn a_link_that_leads_nowhere_is_reported_before_any_contention() {
        // Every register is taken before any is put: in cycle 1 the
        // earlier port (0,0)→E finds (0,1)'s input still full, yet the
        // later port's verdict — off the edge, or into an idle tile — is
        // the error both report.
        let east =
            |c| (c, ps_send(PsSendSource::LocalPs, PsDst::Port(Direction::East), planes(&[3])));
        let (first, last) = (CoreCoord::new(0, 0), CoreCoord::new(1, 1));
        let cycles = vec![vec![east(first)], vec![east(first), east(last)]];

        match on_chip_and_check(&all(2, 2), &cycles).unwrap_err() {
            Error::InvalidSchedule { cycle: 1, reason } => {
                assert!(reason.contains("ps data driven off the mesh edge at (1,1)"), "{reason}")
            }
            other => panic!("expected the off-edge verdict, got {other}"),
        }
        let live = [first, CoreCoord::new(0, 1), last];
        let holed = Arc::new(TileSlots::from_live(2, 3, live).unwrap());
        match on_chip_and_check(&holed, &cycles).unwrap_err() {
            Error::InvalidSchedule { cycle: 1, reason } => {
                assert!(reason.contains("into an idle tile from (1,1)"), "{reason}")
            }
            other => panic!("expected the idle-tile verdict, got {other}"),
        }
        // Without the stray port the contention itself surfaces.
        let alone = vec![vec![east(first)], vec![east(first)]];
        match on_chip_and_check(&all(2, 2), &alone).unwrap_err() {
            Error::InvalidSchedule { cycle: 1, reason } => {
                assert!(reason.contains("ps input register contention"), "{reason}")
            }
            other => panic!("expected input contention, got {other}"),
        }
    }

    #[test]
    fn ps_contention_is_reported_before_spike_contention_on_an_earlier_port() {
        let spikes = (
            CoreCoord::new(0, 0),
            AtomicOp::Spike(SpikeRouterOp::Send { dst: Direction::East, planes: planes(&[5]) }),
        );
        let sums = (
            CoreCoord::new(1, 0),
            ps_send(PsSendSource::LocalPs, PsDst::Port(Direction::East), planes(&[5])),
        );
        let cycle = vec![spikes, sums];
        match on_chip_and_check(&all(2, 2), &[cycle.clone(), cycle]).unwrap_err() {
            Error::InvalidSchedule { cycle: 1, reason } => {
                assert!(
                    reason.contains("ps input register contention at port W, plane 5"),
                    "{reason}"
                )
            }
            other => panic!("expected PS input contention, got {other}"),
        }
    }

    #[test]
    fn every_op_fault_is_the_scalar_routers_error() {
        // One cycle of ops on (0,0) of a 1 × 2 mesh after `setup`: each
        // case trips one rule of Table I's register discipline, and the
        // check must name the oracle's reason, plane and cycle.
        let (here, east) = (CoreCoord::new(0, 0), CoreCoord::new(0, 1));
        let ps = |op| (here, AtomicOp::Ps(op));
        let spk = |op| (here, AtomicOp::Spike(op));
        let sum = |consec, p: &[u16]| {
            ps(PsRouterOp::Sum { src: Direction::East, consec, planes: planes(p) })
        };
        let eject = |p: &[u16]| ps_send(PsSendSource::SumBuf, PsDst::SpikingLogic, planes(p));
        let from_east = (
            east,
            ps_send(PsSendSource::LocalPs, PsDst::Port(Direction::West), planes(&[1, 2, 3, 4])),
        );
        let spike_from_east = (
            east,
            AtomicOp::Spike(SpikeRouterOp::Send { dst: Direction::West, planes: planes(&[1, 2]) }),
        );
        let bypass = |dst, p: &[u16]| {
            spk(SpikeRouterOp::Bypass {
                src: Direction::East,
                dst,
                deliver: true,
                planes: planes(p),
            })
        };
        let cases: Vec<(Vec<Cycle>, &str)> = vec![
            (vec![vec![sum(false, &[7])]], "SUM on plane 7: no data registered at port E"),
            (
                vec![vec![from_east.clone()], vec![sum(true, &[2, 3])]],
                "SUM consec on plane 2: empty accumulation register",
            ),
            (
                vec![vec![(
                    here,
                    ps_send(PsSendSource::SumBuf, PsDst::Port(Direction::East), planes(&[4])),
                )]],
                "SEND sum_buf on plane 4: empty accumulation register",
            ),
            (
                vec![vec![ps(PsRouterOp::Bypass {
                    src: Direction::North,
                    dst: PsDst::SpikingLogic,
                    planes: planes(&[9]),
                })]],
                "BYPASS on plane 9: no data registered at port N",
            ),
            (
                vec![
                    vec![from_east.clone()],
                    vec![sum(false, &[1, 2]), (here, eject(&[1])), (here, eject(&[1, 2]))],
                ],
                "ps eject register contention at plane 1",
            ),
            (
                vec![vec![(
                    here,
                    AtomicOp::Spike(SpikeRouterOp::Spike {
                        from_ps_router: true,
                        planes: planes(&[6]),
                    }),
                )]],
                "SPIKE from PS router on plane 6: no ejected sum",
            ),
            (vec![vec![bypass(None, &[0])]], "BYPASS on plane 0: no spike at port E"),
            (
                // A missing source wins over a taken destination on one
                // plane; the lowest plane wins across planes.
                vec![
                    vec![spike_from_east.clone()],
                    vec![
                        spk(SpikeRouterOp::Send { dst: Direction::South, planes: planes(&[2, 5]) }),
                        bypass(Some(Direction::South), &[2, 5]),
                    ],
                ],
                "spike output register contention at port S, plane 2",
            ),
            (
                vec![
                    vec![spike_from_east],
                    vec![
                        spk(SpikeRouterOp::Send { dst: Direction::South, planes: planes(&[3]) }),
                        bypass(Some(Direction::South), &[3]),
                    ],
                ],
                "BYPASS on plane 3: no spike at port E",
            ),
            (
                vec![vec![(here, AtomicOp::Core(NeuronCoreOp::Acc { banks: 0b10000 }))]],
                "bank mask 0b10000 invalid for a 4-bank core",
            ),
        ];
        let slots = all(1, 2);
        for (cycles, want) in cases {
            let err = on_chip_and_check(&slots, &cycles).unwrap_err();
            assert!(err.to_string().contains(want), "{err} (expected {want})");
        }
        // PS output contention carries the op's source cycle.
        let twice = ps_send(PsSendSource::LocalPs, PsDst::Port(Direction::East), planes(&[8]));
        let cycles = [vec![], vec![(here, twice.clone()), (here, twice)]];
        match on_chip_and_check(&slots, &cycles).unwrap_err() {
            Error::InvalidSchedule { cycle: 1, reason } => {
                assert_eq!(reason, "ps output register contention at port E, plane 8")
            }
            other => panic!("expected output contention, got {other}"),
        }
    }

    #[test]
    fn a_legal_fold_with_unread_inputs_passes() {
        // (0,1) sends planes 1..4 west; (0,0) folds 1 and 2 a cycle later
        // and ejects them, then integrates; planes 3 and 4 stay unread,
        // which is legal: the next timestep starts from empty registers.
        let (here, east) = (CoreCoord::new(0, 0), CoreCoord::new(0, 1));
        let cycles = vec![
            vec![(
                east,
                ps_send(PsSendSource::LocalPs, PsDst::Port(Direction::West), planes(&[1, 2, 3, 4])),
            )],
            vec![
                (
                    here,
                    AtomicOp::Ps(PsRouterOp::Sum {
                        src: Direction::East,
                        consec: false,
                        planes: planes(&[1, 2]),
                    }),
                ),
                (here, ps_send(PsSendSource::SumBuf, PsDst::SpikingLogic, planes(&[1, 2]))),
                (
                    here,
                    AtomicOp::Spike(SpikeRouterOp::Spike {
                        from_ps_router: true,
                        planes: planes(&[1, 2]),
                    }),
                ),
                (here, AtomicOp::Core(NeuronCoreOp::Acc { banks: 0b1111 })),
            ],
        ];
        let footprint = on_chip_and_check(&all(1, 2), &cycles).unwrap();
        // The footprint is what was put or filled: planes 1..4 out of
        // (0,1)'s west port and into (0,0)'s east one, 1 and 2 summed,
        // ejected and integrated — nothing else, on neither tile.
        let named = |slot, file: usize| footprint.files(slot, file..file + 1)[0];
        let (sent, folded) = (0b1_1110, 0b110);
        assert_eq!(named(1, PS_OUT + port(Direction::West)), sent);
        assert_eq!(named(0, PS_IN + port(Direction::East)), sent);
        assert_eq!([SUM, EJECT, IF].map(|f| named(0, f)), [folded; 3]);
        let planes =
            |slot| footprint.files(slot, 0..FILES).iter().map(|w| w.count_ones()).sum::<u32>();
        assert_eq!([planes(0), planes(1)], [4 + 2 + 2 + 2, 4]);
        assert_eq!(footprint.tiles(), 2);
        let all = Footprint::all(&ArchSpec::tiny(), 2);
        assert!(all.files(1, 0..FILES).iter().all(|&w| w == 0xFFFF), "every plane of 16");
    }
}
