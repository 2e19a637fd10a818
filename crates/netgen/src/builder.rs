use crate::spec::DesignSpec;
use m3d_netlist::{CellId, MacroSpec, NetId, Netlist};
use m3d_tech::{CellKind, Drive};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a gate-level netlist from a [`DesignSpec`], deterministically
/// for a given `seed`.
///
/// Construction guarantees:
///
/// * the result passes [`Netlist::validate`] (single drivers, all pins
///   connected, registers clocked, no combinational cycles),
/// * every block's combinational logic has the requested depth,
/// * cross-block connections follow each block's `locality`,
/// * dangling cones are reduced into primary outputs through XOR trees
///   (no dead logic), mirroring what synthesis would emit.
#[must_use]
pub fn generate(spec: &DesignSpec, seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut n = Netlist::new(spec.name.clone());
    // Every `(net, sink, pin)` connection, in the order it is decided.
    // Nothing below reads a sink list, so they are wired in one batch at
    // the end, which sizes each net's sink list exactly once.
    let mut wires: Vec<(NetId, CellId, u8)> = Vec::new();

    // Clock.
    let clk_port = n.add_input("clk");
    let clk = n.add_net("clk", clk_port, 0);
    n.set_clock(clk);

    // Primary inputs.
    let mut global_pool: Vec<NetId> = Vec::new();
    for i in 0..spec.primary_inputs {
        let p = n.add_input(format!("in{i}"));
        global_pool.push(n.add_net(format!("in{i}"), p, 0));
    }

    // Pass 1: registers of every block instance, so later blocks can read
    // earlier blocks' state and vice versa through the global pool.
    struct BlockCtx {
        tag: u16,
        spec_idx: usize,
        regs: Vec<CellId>,
        reg_q: Vec<NetId>,
        sram_outs: Vec<NetId>,
    }
    let mut ctxs: Vec<BlockCtx> = Vec::new();
    for (spec_idx, b) in spec.blocks.iter().enumerate() {
        for rep in 0..b.replicate {
            let tag = n.add_block(format!("{}_{rep}", b.name));
            let mut regs = Vec::with_capacity(b.registers);
            let mut reg_q = Vec::with_capacity(b.registers);
            for r in 0..b.registers {
                let ff = n.add_gate(
                    format!("{}_{rep}_r{r}", b.name),
                    CellKind::Dff,
                    Drive::X1,
                    tag,
                );
                wires.push((clk, ff, 1));
                let q = n.add_net(format!("{}_{rep}_q{r}", b.name), ff, 0);
                regs.push(ff);
                reg_q.push(q);
                global_pool.push(q);
            }
            ctxs.push(BlockCtx {
                tag,
                spec_idx,
                regs,
                reg_q,
                sram_outs: Vec::new(),
            });
        }
    }

    // SRAM macros: outputs join their block's local pool and the globals.
    let mut sram_inputs: Vec<(CellId, usize, usize)> = Vec::new(); // (cell, n_inputs, ctx idx)
    for s in &spec.srams {
        let ctx_idx = ctxs.iter().position(|c| c.spec_idx == s.block).unwrap_or(0);
        let tag = ctxs[ctx_idx].tag;
        let id = n.add_macro(
            s.name.clone(),
            MacroSpec::sram(s.bits),
            s.inputs,
            s.outputs,
            tag,
        );
        wires.push((clk, id, s.inputs as u8));
        for o in 0..s.outputs {
            let q = n.add_net(format!("{}_o{o}", s.name), id, o as u8);
            ctxs[ctx_idx].sram_outs.push(q);
            global_pool.push(q);
        }
        sram_inputs.push((id, s.inputs, ctx_idx));
    }

    // Pass 2: combinational logic per block instance.
    let mut dangling: Vec<NetId> = Vec::new();
    let mut consumed = vec![false; 1_usize]; // grown lazily by mark()
    let mark = |consumed: &mut Vec<bool>, net: NetId| {
        if consumed.len() <= net.index() {
            consumed.resize(net.index() + 1, false);
        }
        consumed[net.index()] = true;
    };

    for ctx in &ctxs {
        let b = &spec.blocks[ctx.spec_idx];
        let mut local_pool: Vec<NetId> = ctx.reg_q.clone();
        local_pool.extend(&ctx.sram_outs);
        if local_pool.is_empty() {
            local_pool.push(global_pool[rng.gen_range(0..global_pool.len())]);
        }
        let mut prev_level: Vec<NetId> = local_pool.clone();
        let gates_per_level = (b.gates / b.depth).max(1);
        let mut made = 0usize;
        let mut level = 0usize;
        let mut all_outputs: Vec<NetId> = Vec::new();
        while made < b.gates {
            let count = gates_per_level.min(b.gates - made);
            let mut this_level = Vec::with_capacity(count);
            for g in 0..count {
                let kind = pick_kind(&mut rng, b.xor_bias);
                let id = n.add_gate(
                    format!("{}_g{}", n.block_name(ctx.tag), made + g),
                    kind,
                    Drive::X1,
                    ctx.tag,
                );
                for pin in 0..kind.input_count() {
                    let src =
                        pick_source(&mut rng, b.locality, &prev_level, &local_pool, &global_pool);
                    wires.push((src, id, pin as u8));
                    mark(&mut consumed, src);
                }
                let out = n.add_net(format!("{}_n{}", n.block_name(ctx.tag), made + g), id, 0);
                this_level.push(out);
                all_outputs.push(out);
            }
            made += count;
            // The next level draws mostly from this level (keeps depth).
            prev_level = this_level;
            level += 1;
            if level >= b.depth && made < b.gates {
                // Spread any remainder across the last level.
                level = b.depth - 1;
            }
        }
        // Close the state loop: register D pins take late-level signals.
        for (i, &ff) in ctx.regs.iter().enumerate() {
            let src = if all_outputs.is_empty() {
                global_pool[rng.gen_range(0..global_pool.len())]
            } else {
                // Bias toward the deepest signals.
                let lo = all_outputs.len().saturating_sub(all_outputs.len() / 3 + 1);
                all_outputs[rng.gen_range(lo..all_outputs.len())]
            };
            let _ = i;
            wires.push((src, ff, 0));
            mark(&mut consumed, src);
        }
        dangling.extend(all_outputs);
    }

    // SRAM data inputs from their block's logic (or globals).
    for (id, n_in, ctx_idx) in sram_inputs {
        let pool: Vec<NetId> = if ctxs[ctx_idx].reg_q.is_empty() {
            global_pool.clone()
        } else {
            ctxs[ctx_idx].reg_q.clone()
        };
        for pin in 0..n_in {
            let src = pool[rng.gen_range(0..pool.len())];
            wires.push((src, id, pin as u8));
            mark(&mut consumed, src);
        }
    }

    // Reduce genuinely dangling signals (gate cones, unread register
    // state, unused primary inputs) into the primary outputs via XOR
    // trees, so no logic is dead.
    let mut pool = dangling;
    for ctx in &ctxs {
        pool.extend(ctx.reg_q.iter().copied());
    }
    pool.extend(global_pool.iter().take(spec.primary_inputs).copied());
    let mut frontier: Vec<NetId> = pool
        .into_iter()
        .filter(|net| consumed.get(net.index()).copied() != Some(true))
        .collect();
    let mut tree_idx = 0usize;
    while frontier.len() > spec.primary_outputs.max(1) {
        let mut next = Vec::with_capacity(frontier.len() / 2 + 1);
        let mut it = frontier.chunks_exact(2);
        for pair in it.by_ref() {
            let x = n.add_gate(format!("collect_x{tree_idx}"), CellKind::Xor2, Drive::X1, 0);
            tree_idx += 1;
            wires.push((pair[0], x, 0));
            wires.push((pair[1], x, 1));
            next.push(n.add_net(format!("collect_n{tree_idx}"), x, 0));
        }
        next.extend(it.remainder().iter().copied());
        frontier = next;
    }
    for i in 0..spec.primary_outputs {
        let po = n.add_output(format!("out{i}"));
        let src = if frontier.is_empty() {
            global_pool[rng.gen_range(0..global_pool.len())]
        } else {
            frontier[i % frontier.len()]
        };
        wires.push((src, po, 0));
    }

    n.connect_all(&wires);
    n.shrink_to_fit();
    n
}

fn pick_kind(rng: &mut StdRng, xor_bias: f64) -> CellKind {
    if rng.gen_bool(xor_bias.clamp(0.0, 1.0)) {
        return if rng.gen_bool(0.5) {
            CellKind::Xor2
        } else {
            CellKind::Xnor2
        };
    }
    // Weighted mix approximating a synthesis result.
    let r = rng.gen_range(0.0..1.0);
    match r {
        x if x < 0.22 => CellKind::Nand2,
        x if x < 0.36 => CellKind::Nor2,
        x if x < 0.50 => CellKind::Inv,
        x if x < 0.58 => CellKind::And2,
        x if x < 0.66 => CellKind::Or2,
        x if x < 0.74 => CellKind::Aoi21,
        x if x < 0.80 => CellKind::Oai21,
        x if x < 0.86 => CellKind::Mux2,
        x if x < 0.91 => CellKind::Nand3,
        x if x < 0.95 => CellKind::Nor3,
        x if x < 0.98 => CellKind::Buf,
        _ => CellKind::Xor2,
    }
}

fn pick_source(
    rng: &mut StdRng,
    locality: f64,
    prev_level: &[NetId],
    local_pool: &[NetId],
    global_pool: &[NetId],
) -> NetId {
    let local = rng.gen_bool(locality.clamp(0.0, 1.0));
    if local && !prev_level.is_empty() {
        // Mostly the previous level (keeps the cone deep), sometimes any
        // local signal.
        if rng.gen_bool(0.8) {
            prev_level[rng.gen_range(0..prev_level.len())]
        } else {
            local_pool[rng.gen_range(0..local_pool.len())]
        }
    } else if !global_pool.is_empty() {
        global_pool[rng.gen_range(0..global_pool.len())]
    } else {
        prev_level[rng.gen_range(0..prev_level.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BlockSpec, DesignSpec};

    fn small_spec() -> DesignSpec {
        DesignSpec {
            name: "small".into(),
            primary_inputs: 8,
            primary_outputs: 8,
            blocks: vec![
                BlockSpec::new("a", 200, 10, 24, 0.8),
                BlockSpec::new("b", 150, 6, 16, 0.3).with_xor_bias(0.5),
            ],
            srams: vec![],
        }
    }

    #[test]
    fn generated_netlist_is_valid() {
        let n = generate(&small_spec(), 1);
        n.validate().expect("valid netlist");
        assert!(n.gate_count() >= 350);
        assert!(n.stats().registers == 40);
        assert!(n.clock().is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_spec(), 7);
        let b = generate(&small_spec(), 7);
        assert_eq!(a.cell_count(), b.cell_count());
        assert_eq!(a.net_count(), b.net_count());
        let stats_a = a.stats();
        let stats_b = b.stats();
        assert_eq!(stats_a.pins, stats_b.pins);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_spec(), 1);
        let b = generate(&small_spec(), 2);
        // Same register count (construction is count-driven) but a
        // different gate mix and wiring.
        assert_eq!(a.stats().registers, b.stats().registers);
        assert_ne!(a.stats().kind_histogram, b.stats().kind_histogram);
    }

    #[test]
    fn low_locality_produces_higher_fanout_spread() {
        let mut local = small_spec();
        local.blocks = vec![BlockSpec::new("l", 600, 8, 64, 0.95)];
        let mut global = small_spec();
        global.blocks = vec![BlockSpec::new("g", 600, 8, 64, 0.02)];
        let nl = generate(&local, 3);
        let ng = generate(&global, 3);
        // Global designs concentrate fanout on the shared pool.
        assert!(ng.stats().max_fanout >= nl.stats().max_fanout);
    }

    #[test]
    fn srams_are_wired_and_clocked() {
        let mut spec = small_spec();
        spec.srams = vec![crate::spec::SramSpec {
            name: "u_sram".into(),
            bits: 4096,
            inputs: 8,
            outputs: 8,
            block: 0,
        }];
        let n = generate(&spec, 5);
        n.validate().expect("valid");
        assert_eq!(n.macro_count(), 1);
    }

    #[test]
    fn no_dead_logic_remains() {
        let n = generate(&small_spec(), 11);
        // Every combinational net must have at least one sink.
        let mut dangling = 0;
        for (_, net) in n.nets() {
            if net.fanout() == 0 {
                dangling += 1;
            }
        }
        assert_eq!(dangling, 0, "{dangling} dangling nets");
    }
}
