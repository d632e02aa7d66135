//! The partial-sum NoC router (Fig. 2b), vectorized over planes.
//!
//! Per plane (= per neuron) the router owns: four input registers (one per
//! mesh port, written by the neighbor's output in the previous cycle's
//! transfer phase), a 16-bit adder whose first operand is either the local
//! partial sum or the previous accumulation (`consec_add` mux), an
//! accumulation register (`sum_buf`), four output registers and an ejection
//! register feeding the tile's IF/spiking logic.
//!
//! There is no buffering beyond these single registers and no flow control:
//! if the compiled schedule lands two values in the same register in the
//! same cycle, execution reports an error instead of silently dropping
//! data — that schedule would not work on the real hardware either.

use shenjing_core::{Direction, Error, LocalSum, NocSum, Result};

use crate::ops::{PsDst, PsRouterOp, PsSendSource};

/// All PS-NoC planes of one tile.
///
/// ```
/// use shenjing_core::{Direction, LocalSum};
/// use shenjing_hw::{PsRouter, PsRouterOp, PsDst, PsSendSource, PlaneSet};
///
/// let mut r = PsRouter::new(4);
/// let local = vec![LocalSum::new(10)?; 4];
/// // Send the local PS out the East port on every plane.
/// r.exec(
///     &PsRouterOp::Send {
///         source: PsSendSource::LocalPs,
///         dst: PsDst::Port(Direction::East),
///         planes: PlaneSet::all(),
///     },
///     &local,
/// )?;
/// assert_eq!(r.take_output(Direction::East, 0), Some(shenjing_core::NocSum::new(10)?));
/// # Ok::<(), shenjing_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct PsRouter {
    planes: u16,
    /// `[port * planes + plane]` input registers.
    inputs: Vec<Option<NocSum>>,
    /// `[port * planes + plane]` output registers.
    outputs: Vec<Option<NocSum>>,
    /// How many of `outputs` hold data: lets the chip's transfer phase
    /// skip a tile with nothing in flight.
    pending_outputs: usize,
    /// `[plane]` accumulation registers (Table I's `sum_buf`).
    sum_buf: Vec<Option<NocSum>>,
    /// `[plane]` ejection registers toward the IF/spiking logic.
    eject: Vec<Option<NocSum>>,
}

impl PsRouter {
    /// Creates the router block for a tile with `planes` neurons.
    pub fn new(planes: u16) -> PsRouter {
        PsRouter {
            planes,
            inputs: vec![None; planes as usize * 4],
            outputs: vec![None; planes as usize * 4],
            pending_outputs: 0,
            sum_buf: vec![None; planes as usize],
            eject: vec![None; planes as usize],
        }
    }

    /// Number of planes.
    pub fn planes(&self) -> u16 {
        self.planes
    }

    /// Executes one op across its plane set. `local_ps` is the neuron
    /// core's current local partial sums (indexed by plane).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidControl`] when an operand register is empty
    /// (the schedule consumed data that never arrived), or
    /// [`Error::InvalidSchedule`]-style contention when an output register
    /// is already occupied, or [`Error::SumOverflow`] when the 16-bit adder
    /// overflows.
    pub fn exec(&mut self, op: &PsRouterOp, local_ps: &[LocalSum]) -> Result<()> {
        match op {
            PsRouterOp::Sum { src, consec, planes } => {
                for p in planes.iter(self.planes) {
                    let incoming =
                        self.take_input(*src, p).ok_or_else(|| Error::InvalidControl {
                            component: "ps_router".into(),
                            reason: format!("SUM on plane {p}: no data registered at port {src}"),
                        })?;
                    let first = if *consec {
                        self.sum_buf[p as usize].ok_or_else(|| Error::InvalidControl {
                            component: "ps_router".into(),
                            reason: format!("SUM consec on plane {p}: empty accumulation register"),
                        })?
                    } else {
                        local_ps.get(p as usize).copied().unwrap_or(LocalSum::ZERO).widen()
                    };
                    self.sum_buf[p as usize] = Some(first.checked_add(incoming)?);
                }
            }
            PsRouterOp::Send { source, dst, planes } => {
                for p in planes.iter(self.planes) {
                    let value = match source {
                        PsSendSource::LocalPs => {
                            local_ps.get(p as usize).copied().unwrap_or(LocalSum::ZERO).widen()
                        }
                        PsSendSource::SumBuf => {
                            self.sum_buf[p as usize].ok_or_else(|| Error::InvalidControl {
                                component: "ps_router".into(),
                                reason: format!(
                                    "SEND sum_buf on plane {p}: empty accumulation register"
                                ),
                            })?
                        }
                    };
                    self.write_out(*dst, p, value)?;
                }
            }
            PsRouterOp::Bypass { src, dst, planes } => {
                for p in planes.iter(self.planes) {
                    let value = self.take_input(*src, p).ok_or_else(|| Error::InvalidControl {
                        component: "ps_router".into(),
                        reason: format!("BYPASS on plane {p}: no data registered at port {src}"),
                    })?;
                    self.write_out(*dst, p, value)?;
                }
            }
        }
        Ok(())
    }

    /// Writes an incoming value into the input register of `port`
    /// (the transfer phase of the chip fabric calls this).
    ///
    /// # Errors
    ///
    /// Returns a contention error when the register still holds unconsumed
    /// data.
    pub fn put_input(&mut self, port: Direction, plane: u16, value: NocSum) -> Result<()> {
        let idx = self.reg_index(port, plane);
        if self.inputs[idx].is_some() {
            return Err(Error::InvalidSchedule {
                cycle: 0,
                reason: format!("ps input register contention at port {port}, plane {plane}"),
            });
        }
        self.inputs[idx] = Some(value);
        Ok(())
    }

    /// Removes and returns the output register of `port`/`plane`.
    pub fn take_output(&mut self, port: Direction, plane: u16) -> Option<NocSum> {
        let idx = self.reg_index(port, plane);
        let taken = self.outputs[idx].take();
        self.pending_outputs -= usize::from(taken.is_some());
        taken
    }

    /// Removes and returns the ejection register toward the spiking logic.
    pub fn take_eject(&mut self, plane: u16) -> Option<NocSum> {
        self.eject[plane as usize].take()
    }

    /// Mutable view of all ejection registers — the wire bundle from the PS
    /// router into the tile's IF/spiking logic (consumed by
    /// [`SpikeRouter::exec`]).
    ///
    /// [`SpikeRouter::exec`]: crate::SpikeRouter::exec
    pub fn eject_mut(&mut self) -> &mut [Option<NocSum>] {
        &mut self.eject
    }

    /// Peeks the accumulation register.
    pub fn sum_buf(&self, plane: u16) -> Option<NocSum> {
        self.sum_buf[plane as usize]
    }

    /// Peeks an input register without consuming it.
    pub fn peek_input(&self, port: Direction, plane: u16) -> Option<NocSum> {
        self.inputs[self.reg_index(port, plane)]
    }

    /// Clears all registers (new inference frame).
    pub fn reset(&mut self) {
        self.inputs.iter_mut().for_each(|r| *r = None);
        self.outputs.iter_mut().for_each(|r| *r = None);
        self.pending_outputs = 0;
        self.sum_buf.iter_mut().for_each(|r| *r = None);
        self.eject.iter_mut().for_each(|r| *r = None);
    }

    /// Whether any output register holds data awaiting transfer.
    pub fn has_pending_output(&self) -> bool {
        self.pending_outputs > 0
    }

    fn take_input(&mut self, port: Direction, plane: u16) -> Option<NocSum> {
        let idx = self.reg_index(port, plane);
        self.inputs[idx].take()
    }

    fn write_out(&mut self, dst: PsDst, plane: u16, value: NocSum) -> Result<()> {
        match dst {
            PsDst::Port(d) => {
                let idx = self.reg_index(d, plane);
                if self.outputs[idx].is_some() {
                    return Err(Error::InvalidSchedule {
                        cycle: 0,
                        reason: format!("ps output register contention at port {d}, plane {plane}"),
                    });
                }
                self.outputs[idx] = Some(value);
                self.pending_outputs += 1;
            }
            PsDst::SpikingLogic => {
                if self.eject[plane as usize].is_some() {
                    return Err(Error::InvalidSchedule {
                        cycle: 0,
                        reason: format!("ps eject register contention at plane {plane}"),
                    });
                }
                self.eject[plane as usize] = Some(value);
            }
        }
        Ok(())
    }

    /// Port-major register layout: the transfer phase and the `exec` loops
    /// walk planes with the port fixed, so `[port][plane]` keeps those
    /// walks sequential in memory.
    #[inline]
    fn reg_index(&self, port: Direction, plane: u16) -> usize {
        port.encode() as usize * self.planes as usize + plane as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::PlaneSet;

    fn local(vals: &[i32]) -> Vec<LocalSum> {
        vals.iter().map(|&v| LocalSum::new(v).unwrap()).collect()
    }

    fn noc(v: i32) -> NocSum {
        NocSum::new(v).unwrap()
    }

    #[test]
    fn send_local_ps_to_port() {
        let mut r = PsRouter::new(2);
        r.exec(
            &PsRouterOp::Send {
                source: PsSendSource::LocalPs,
                dst: PsDst::Port(Direction::North),
                planes: PlaneSet::all(),
            },
            &local(&[7, -3]),
        )
        .unwrap();
        assert_eq!(r.take_output(Direction::North, 0), Some(noc(7)));
        assert_eq!(r.take_output(Direction::North, 1), Some(noc(-3)));
        assert_eq!(r.take_output(Direction::North, 0), None, "take drains");
    }

    #[test]
    fn sum_first_then_consecutive() {
        let mut r = PsRouter::new(1);
        // First fold: incoming 5 + local 10 = 15.
        r.put_input(Direction::South, 0, noc(5)).unwrap();
        r.exec(
            &PsRouterOp::Sum { src: Direction::South, consec: false, planes: PlaneSet::all() },
            &local(&[10]),
        )
        .unwrap();
        assert_eq!(r.sum_buf(0), Some(noc(15)));
        // Second fold: incoming 100 + previous 15 = 115 (consec).
        r.put_input(Direction::South, 0, noc(100)).unwrap();
        r.exec(
            &PsRouterOp::Sum { src: Direction::South, consec: true, planes: PlaneSet::all() },
            &local(&[10]),
        )
        .unwrap();
        assert_eq!(r.sum_buf(0), Some(noc(115)));
    }

    #[test]
    fn send_sum_buf_to_spiking_logic() {
        let mut r = PsRouter::new(1);
        r.put_input(Direction::East, 0, noc(4)).unwrap();
        r.exec(
            &PsRouterOp::Sum { src: Direction::East, consec: false, planes: PlaneSet::all() },
            &local(&[6]),
        )
        .unwrap();
        r.exec(
            &PsRouterOp::Send {
                source: PsSendSource::SumBuf,
                dst: PsDst::SpikingLogic,
                planes: PlaneSet::all(),
            },
            &local(&[6]),
        )
        .unwrap();
        assert_eq!(r.take_eject(0), Some(noc(10)));
        assert_eq!(r.take_eject(0), None);
    }

    #[test]
    fn bypass_forwards_input() {
        let mut r = PsRouter::new(1);
        r.put_input(Direction::West, 0, noc(42)).unwrap();
        r.exec(
            &PsRouterOp::Bypass {
                src: Direction::West,
                dst: PsDst::Port(Direction::East),
                planes: PlaneSet::all(),
            },
            &local(&[0]),
        )
        .unwrap();
        assert_eq!(r.take_output(Direction::East, 0), Some(noc(42)));
        // The input register was consumed.
        assert_eq!(r.peek_input(Direction::West, 0), None);
    }

    #[test]
    fn missing_operand_is_error() {
        let mut r = PsRouter::new(1);
        let err = r
            .exec(
                &PsRouterOp::Sum { src: Direction::North, consec: false, planes: PlaneSet::all() },
                &local(&[0]),
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidControl { .. }));

        let err = r
            .exec(
                &PsRouterOp::Bypass {
                    src: Direction::North,
                    dst: PsDst::Port(Direction::South),
                    planes: PlaneSet::all(),
                },
                &local(&[0]),
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidControl { .. }));
    }

    #[test]
    fn consec_sum_without_history_is_error() {
        let mut r = PsRouter::new(1);
        r.put_input(Direction::North, 0, noc(1)).unwrap();
        let err = r
            .exec(
                &PsRouterOp::Sum { src: Direction::North, consec: true, planes: PlaneSet::all() },
                &local(&[0]),
            )
            .unwrap_err();
        assert!(matches!(err, Error::InvalidControl { .. }));
    }

    #[test]
    fn output_contention_detected() {
        let mut r = PsRouter::new(1);
        let send = PsRouterOp::Send {
            source: PsSendSource::LocalPs,
            dst: PsDst::Port(Direction::North),
            planes: PlaneSet::all(),
        };
        r.exec(&send, &local(&[1])).unwrap();
        let err = r.exec(&send, &local(&[1])).unwrap_err();
        assert!(matches!(err, Error::InvalidSchedule { .. }));
    }

    #[test]
    fn input_contention_detected() {
        let mut r = PsRouter::new(1);
        r.put_input(Direction::North, 0, noc(1)).unwrap();
        assert!(r.put_input(Direction::North, 0, noc(2)).is_err());
    }

    #[test]
    fn adder_overflow_detected() {
        let mut r = PsRouter::new(1);
        r.put_input(Direction::North, 0, noc(32767)).unwrap();
        let err = r
            .exec(
                &PsRouterOp::Sum { src: Direction::North, consec: false, planes: PlaneSet::all() },
                &local(&[1]),
            )
            .unwrap_err();
        assert!(matches!(err, Error::SumOverflow { bits: 16, .. }));
    }

    #[test]
    fn plane_masking_respected() {
        let mut r = PsRouter::new(4);
        r.exec(
            &PsRouterOp::Send {
                source: PsSendSource::LocalPs,
                dst: PsDst::Port(Direction::South),
                planes: PlaneSet::from_indices([1u16, 3]),
            },
            &local(&[10, 11, 12, 13]),
        )
        .unwrap();
        assert_eq!(r.take_output(Direction::South, 0), None);
        assert_eq!(r.take_output(Direction::South, 1), Some(noc(11)));
        assert_eq!(r.take_output(Direction::South, 2), None);
        assert_eq!(r.take_output(Direction::South, 3), Some(noc(13)));
    }

    #[test]
    fn empty_plane_set_is_a_noop() {
        let mut r = PsRouter::new(4);
        r.exec(
            &PsRouterOp::Send {
                source: PsSendSource::LocalPs,
                dst: PsDst::Port(Direction::North),
                planes: PlaneSet::empty(),
            },
            &local(&[1, 2, 3, 4]),
        )
        .unwrap();
        assert!(!r.has_pending_output());
        assert_eq!(r.take_output(Direction::North, 0), None);
    }

    #[test]
    fn full_mask_occupies_every_plane() {
        // An explicit full mask (not PlaneSet::All) across a word boundary.
        let mut r = PsRouter::new(80);
        let sums: Vec<LocalSum> = (0..80).map(|i| LocalSum::new(i).unwrap()).collect();
        r.exec(
            &PsRouterOp::Send {
                source: PsSendSource::LocalPs,
                dst: PsDst::Port(Direction::East),
                planes: PlaneSet::from_range(0..80),
            },
            &sums,
        )
        .unwrap();
        for plane in 0..80u16 {
            assert!(r.has_pending_output());
            assert_eq!(r.take_output(Direction::East, plane), Some(noc(i32::from(plane))));
        }
        assert!(!r.has_pending_output());
    }

    #[test]
    fn single_high_plane_index_tracked() {
        // The last plane of a 256-plane tile, on one port only.
        let mut r = PsRouter::new(256);
        let sums: Vec<LocalSum> = (0..256).map(|_| LocalSum::new(9).unwrap()).collect();
        r.exec(
            &PsRouterOp::Send {
                source: PsSendSource::LocalPs,
                dst: PsDst::Port(Direction::South),
                planes: PlaneSet::from_indices([255u16]),
            },
            &sums,
        )
        .unwrap();
        assert!(r.has_pending_output());
        assert_eq!(r.take_output(Direction::North, 255), None);
        assert!(r.has_pending_output(), "a miss on another port drains nothing");
        assert_eq!(r.take_output(Direction::South, 255), Some(noc(9)));
        assert!(!r.has_pending_output());
    }

    #[test]
    fn reset_clears_everything() {
        let mut r = PsRouter::new(1);
        r.put_input(Direction::North, 0, noc(5)).unwrap();
        r.exec(
            &PsRouterOp::Sum { src: Direction::North, consec: false, planes: PlaneSet::all() },
            &local(&[5]),
        )
        .unwrap();
        r.exec(
            &PsRouterOp::Send {
                source: PsSendSource::SumBuf,
                dst: PsDst::Port(Direction::East),
                planes: PlaneSet::all(),
            },
            &local(&[5]),
        )
        .unwrap();
        assert!(r.has_pending_output());
        r.reset();
        assert!(!r.has_pending_output());
        assert_eq!(r.sum_buf(0), None);
        assert_eq!(r.peek_input(Direction::North, 0), None);
    }
}
