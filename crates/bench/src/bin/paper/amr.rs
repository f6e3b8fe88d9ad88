//! Figures 8 and 9: runtime spent on the mesh refinement levels of
//! CleverLeaf per timestep and per MPI rank (§VI-E).
//!
//! The paper's distinctive experiment: the on-line profile includes
//! *all* annotation attributes in the aggregation key (scheme C),
//! including the application-specific AMR level; the off-line queries
//! are then, verbatim:
//!
//! ```text
//! AGGREGATE sum(time.duration)
//! WHERE not(mpi.function)
//! GROUP BY amr.level, iteration#mainloop     (Figure 8)
//! GROUP BY amr.level, mpi.rank               (Figure 9)
//! ```

use caliper_bench::{merge_datasets, schemes, Claim};
use caliper_query::run_query;
use caliper_runtime::Config;
use miniapps::{CleverLeaf, CleverLeafParams};

use cali_cli::CliArgs;

/// `table[x][level]`: seconds outside MPI on each AMR level for each of
/// `rows` values `x` of `attr`, from the full scheme-C profile of
/// `params`. Also returns the per-process profile record count.
fn level_table(params: &CleverLeafParams, attr: &str, rows: usize) -> (Vec<Vec<f64>>, usize) {
    let app = CleverLeaf::new(params.clone());
    let config = Config::event_aggregate(schemes::C, "count,sum(time.duration)");
    let datasets = app.run_all(&config);
    let merged = merge_datasets(&datasets);

    // The paper's query, aggregating the pre-aggregated
    // sum#time.duration from the on-line stage.
    let result = run_query(
        &merged,
        &format!(
            "AGGREGATE sum(sum#time.duration) \
             WHERE not(mpi.function), amr.level \
             GROUP BY amr.level, {attr}"
        ),
    )
    .expect("AMR level query");
    let level = result.store.find("amr.level").unwrap();
    let x = result.store.find(attr).unwrap();
    let time = result.store.find("sum#sum#time.duration").unwrap();

    let mut table = vec![vec![0.0f64; params.levels]; rows];
    for rec in result.records.iter() {
        let (Some(l), Some(x), Some(v)) = (
            rec.get(level.id()).and_then(|v| v.to_i64()),
            rec.get(x.id()).and_then(|v| v.to_i64()),
            rec.get(time.id()).and_then(|v| v.to_f64()),
        ) else {
            continue;
        };
        if (x as usize) < rows && (l as usize) < params.levels {
            table[x as usize][l as usize] += v / 1e6;
        }
    }
    (table, datasets[0].len())
}

/// The first three levels of one row, as CSV cells.
fn level_cells(levels: &[f64]) -> String {
    let level = |l: usize| levels.get(l).copied().unwrap_or(0.0);
    format!("{:.4},{:.4},{:.4}", level(0), level(1), level(2))
}

/// Figure 8: time per AMR level per timestep.
pub fn fig8(args: &CliArgs) -> Vec<Claim> {
    let params = crate::clever_leaf(args, CleverLeafParams::case_study(), 4);
    let timesteps = params.timesteps;
    eprintln!(
        "# Figure 8 reproduction: time per AMR level per timestep, {} ranks, {} timesteps",
        params.ranks, timesteps
    );
    let (table, profile_records) = level_table(&params, "iteration#mainloop", timesteps);
    eprintln!("# per-process profile records: {profile_records} (paper: 257592)");

    println!("timestep,level0_s,level1_s,level2_s");
    for (t, levels) in table.iter().enumerate() {
        println!("{t},{}", level_cells(levels));
    }

    let decile = timesteps / 10;
    let first = |l: usize| table[..decile].iter().map(|r| r[l]).sum::<f64>();
    let last = |l: usize| {
        table[timesteps - decile..]
            .iter()
            .map(|r| r[l])
            .sum::<f64>()
    };
    vec![
        Claim::advisory(format!(
            "level 0 roughly constant: first decile {:.3} s vs last {:.3} s (ratio {:.2})",
            first(0),
            last(0),
            last(0) / first(0)
        )),
        Claim::advisory(format!(
            "level 1 increases slightly: ratio {:.2}",
            last(1) / first(1)
        )),
        Claim::advisory(format!(
            "level 2 increases significantly: ratio {:.2}",
            last(2) / first(2)
        )),
    ]
}

/// Figure 9: time per AMR level per MPI rank.
pub fn fig9(args: &CliArgs) -> Vec<Claim> {
    let params = crate::clever_leaf(args, CleverLeafParams::case_study(), 10);
    let ranks = params.ranks;
    eprintln!("# Figure 9 reproduction: time per AMR level per rank, {ranks} ranks");
    let (table, _) = level_table(&params, "mpi.rank", ranks);

    println!("rank,level0_s,level1_s,level2_s");
    for (r, levels) in table.iter().enumerate() {
        println!("{r},{}", level_cells(levels));
    }
    rank_claims(&table)
}

/// Figure 9's claims over `table[rank][level]`. The paper singles out
/// ranks 7 and 8; below 9 ranks those claims do not apply.
fn rank_claims(table: &[Vec<f64>]) -> Vec<Claim> {
    let ranks = table.len();
    // Typical rank: level-0 >= level-1.
    let typical = table
        .iter()
        .enumerate()
        .filter(|(r, l)| *r != 7 && *r != 8 && l[0] >= l[1])
        .count();
    let mut claims = vec![Claim::advisory(format!(
        "proportions similar on most ranks (level0 >= level1 on {typical}/{} ordinary ranks)",
        ranks.saturating_sub(2)
    ))];
    let rank8 = "rank 8 spends more time in level 1 than 0";
    let rank7 = "rank 7 spends less time in level 0 than most ranks";
    if ranks <= 8 {
        let why = format!("the run has {ranks} ranks");
        claims.push(Claim::not_applicable(format!("{rank8}: {why}")));
        claims.push(Claim::not_applicable(format!("{rank7}: {why}")));
        return claims;
    }
    let (l0, l1) = (table[8][0], table[8][1]);
    claims.push(Claim::gate(
        l1 > l0,
        format!("{rank8}: {l1:.3} vs {l0:.3} s"),
    ));
    let others_l0: f64 = table
        .iter()
        .enumerate()
        .filter(|(r, _)| *r != 7)
        .map(|(_, l)| l[0])
        .sum::<f64>()
        / (ranks - 1) as f64;
    let l0 = table[7][0];
    claims.push(Claim::gate(
        l0 < 0.95 * others_l0,
        format!("{rank7}: {l0:.3} vs avg {others_l0:.3} s (gate: < 0.95 x avg)"),
    ));
    claims
}

#[cfg(test)]
mod tests {
    use super::*;
    use caliper_bench::Verdict;

    #[test]
    fn rank_7_and_8_claims_need_nine_ranks() {
        let verdicts = |ranks: usize| -> Vec<Verdict> {
            let table = vec![vec![1.0, 0.5, 0.2]; ranks];
            rank_claims(&table).iter().map(|c| c.verdict).collect()
        };
        use Verdict::*;
        assert_eq!(verdicts(8), [Advisory, NotApplicable, NotApplicable]);
        // Nine uniform ranks: rank 8 is no outlier, so both gates fail.
        assert_eq!(verdicts(9), [Advisory, Fails, Fails]);
    }
}
