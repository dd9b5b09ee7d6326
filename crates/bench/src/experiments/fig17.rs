//! Figure 17: performance gain of transfer learning.
//!
//! "We transfer the pre-trained model to the Train Ticket application and
//! Online Boutique application to generate Transfer-TT and Transfer-OB
//! models … We validate our pre-trained model, Transfer-TT, and
//! Transfer-OB through an overload scenario on the Train Ticket
//! application. … The transfer learned model serves 8-9% more requests
//! compared to the base model. … the base model itself shows a
//! reasonable performance by achieving an average goodput of 939 rps
//! during a traffic surge, which is a 1.13x higher value compared to the
//! autoscaler standalone which serves 829 rps."

use crate::exec::{Figure, Of, Ratio};
use crate::experiments::fig14;
use crate::models;
use crate::report::Report;
use crate::scenarios::Roster;

pub fn run() -> Report {
    let mut r = Report::new("fig17", "RL models under traffic surge (Train Ticket)");
    Figure {
        recipe: fig14::recipe(17),
        arms: vec![
            ("autoscaler-solo", Roster::None),
            ("base-model", Roster::TopFull(models::base_model())),
            ("transfer-ob", Roster::TopFull(models::transfer_ob())),
            ("transfer-tt", Roster::TopFull(models::transfer_tt())),
        ],
        secs: fig14::RUN_SECS,
        window: fig14::WINDOW,
        table: (
            "avg goodput (rps) during surge",
            "model",
            vec![("goodput", Of::Total)],
        ),
        ratios: vec![
            Ratio {
                label: "base model / autoscaler-solo",
                paper: "1.13x (939 vs 829 rps)",
                num: "base-model",
                den: "autoscaler-solo",
                of: Of::Total,
            },
            Ratio {
                label: "Transfer-TT / base model",
                paper: "1.08-1.09x",
                num: "transfer-tt",
                den: "base-model",
                of: Of::Total,
            },
            Ratio {
                label: "Transfer-OB / base model (cross-app transfer)",
                paper: "≈1.08x (both transferred models gain)",
                num: "transfer-ob",
                den: "base-model",
                of: Of::Total,
            },
        ],
        timelines: vec![],
    }
    .run(&mut r);
    r
}
