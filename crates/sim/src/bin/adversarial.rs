//! §5 "Handling Byzantine clients": the adversarial sweep — the honest
//! control and every attack family at λ ∈ {0.25, 0.6}, each undefended and
//! defended, with the RAS, the defense counters and the alarm raised.

use tommy_sim::experiments::adversarial;
use tommy_sim::output::{fmt, Table};
use tommy_workload::AttackFamily;

fn main() {
    let base = adversarial::adversarial_scenario(AttackFamily::Misreport, 0.0, false);
    eprintln!(
        "adversarial sweep: {} clients, {} messages, sigma {}, gap {}, p_safe {}",
        base.clients,
        base.messages,
        base.clock_std_dev,
        base.inter_message_gap,
        adversarial::ADVERSARIAL_P_SAFE
    );
    let rows = adversarial::run();
    let mut table = Table::new(&[
        "family",
        "intensity",
        "defended",
        "ras_norm",
        "violations",
        "quarantines",
        "reestimations",
        "margin_fallbacks",
        "collusion_quarantines",
        "alarm",
    ]);
    for row in &rows {
        table.row(&[
            row.family
                .map_or("honest", |family| family.name())
                .to_string(),
            fmt(row.intensity, 2),
            row.defended.to_string(),
            fmt(row.ras.normalized(), 4),
            row.stats.fairness_violations.to_string(),
            row.stats.quarantines.to_string(),
            row.stats.reestimations.to_string(),
            row.stats.margin_fallbacks.to_string(),
            row.stats.collusion_quarantines.to_string(),
            row.alarm().to_string(),
        ]);
    }
    println!("{}", table.render());
}
