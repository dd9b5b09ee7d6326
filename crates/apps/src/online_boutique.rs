//! Online Boutique: 11 microservices, 5 external APIs.
//!
//! Modeled after Google's microservices demo as deployed by the paper
//! (Figure 2). The five APIs follow §6 "Benchmark Application Setup":
//! "API 1, 2, 3, 4, 5 corresponds to postcheckout, getproduct, getcart,
//! postcart, and emptycart". Execution paths follow the real application:
//!
//! * `postcheckout` — frontend → checkout → {cart → redis, productcatalog,
//!   currency, shipping, payment, email}, and the order-confirmation page
//!   also renders recommendations (frontend → recommendation →
//!   productcatalog). This is why the paper's Figure 3 shows Post
//!   Checkout and Get Product *sharing* the Recommend and Product
//!   services.
//! * `getproduct` — frontend → {productcatalog, currency, cart → redis,
//!   recommendation → productcatalog, ad}.
//! * `getcart` — frontend → {cart → redis, recommendation →
//!   productcatalog, currency, shipping}.
//! * `postcart` — frontend → {productcatalog, cart → redis}.
//! * `emptycart` — frontend → cart → redis.
//!
//! `recommendation` and `checkout` are the capacity bottlenecks, matching
//! the paper's overload scenario (Figure 3), and `recommendation` is
//! marked `crash_on_overload` to reproduce the §6.3 crash cascade
//! ("Recommendation microservice's pods completely failed at the initial
//! traffic surge").

use cluster::types::BusinessPriority;
use cluster::{ApiId, ApiSpec, CallNode, ServiceId, ServiceSpec, Topology};
use simnet::SimDuration;

/// Handle bundling the topology with named service/API ids.
#[derive(Clone, Debug)]
pub struct OnlineBoutique {
    pub topology: Topology,
    // Services.
    pub frontend: ServiceId,
    pub cart: ServiceId,
    pub productcatalog: ServiceId,
    pub currency: ServiceId,
    pub payment: ServiceId,
    pub shipping: ServiceId,
    pub email: ServiceId,
    pub checkout: ServiceId,
    pub recommendation: ServiceId,
    pub ad: ServiceId,
    pub redis: ServiceId,
    // APIs, in the paper's numbering (API 1..=5).
    pub postcheckout: ApiId,
    pub getproduct: ApiId,
    pub getcart: ApiId,
    pub postcart: ApiId,
    pub emptycart: ApiId,
}

fn ms_f(x: f64) -> SimDuration {
    SimDuration::from_secs_f64(x / 1e3)
}

impl OnlineBoutique {
    /// Build the topology with the default (paper-scale) deployment.
    ///
    /// Default per-service capacity ≈ `replicas / cost`:
    /// recommendation ≈ 500 rps and checkout ≈ 400 rps are the
    /// bottlenecks; everything else has ≥ 2000 rps of headroom.
    pub fn build() -> Self {
        let mut t = Topology::new("online-boutique");
        let frontend = t.add_service(ServiceSpec::new("frontend", 8));
        let cart = t.add_service(ServiceSpec::new("cartservice", 2));
        let productcatalog = t.add_service(ServiceSpec::new("productcatalogservice", 6));
        let currency = t.add_service(ServiceSpec::new("currencyservice", 4));
        let payment = t.add_service(ServiceSpec::new("paymentservice", 2));
        let shipping = t.add_service(ServiceSpec::new("shippingservice", 2));
        let email = t.add_service(ServiceSpec::new("emailservice", 2));
        let checkout = t.add_service(
            // ≈2 s of backlog at the 5 ms checkout cost; deeper queues
            // would mean double-digit-seconds drains no RPC stack buffers.
            ServiceSpec::new("checkoutservice", 2).queue_capacity(400),
        );
        let recommendation = t.add_service(
            ServiceSpec::new("recommendationservice", 2)
                .queue_capacity(256)
                .crash_on_overload(),
        );
        let ad = t.add_service(ServiceSpec::new("adservice", 2));
        let redis = t.add_service(ServiceSpec::new("redis-cart", 2));

        // API 1: postcheckout (highest business priority by default).
        let postcheckout = t.add_api(
            ApiSpec::single(
                "postcheckout",
                CallNode::with_children(
                    frontend,
                    ms_f(1.0),
                    vec![
                        CallNode::with_children(
                            checkout,
                            ms_f(5.0),
                            vec![
                                CallNode::with_children(
                                    cart,
                                    ms_f(1.0),
                                    vec![CallNode::leaf(redis, ms_f(0.3))],
                                ),
                                CallNode::leaf(productcatalog, ms_f(1.5)),
                                CallNode::leaf(currency, ms_f(0.5)),
                                CallNode::leaf(shipping, ms_f(1.0)),
                                CallNode::leaf(payment, ms_f(2.5)),
                                CallNode::leaf(email, ms_f(1.0)),
                            ],
                        ),
                        // Order-confirmation page recommendations
                        // (lighter than the product page's).
                        CallNode::with_children(
                            recommendation,
                            ms_f(2.0),
                            vec![CallNode::leaf(productcatalog, ms_f(1.0))],
                        ),
                    ],
                ),
            )
            .business(BusinessPriority(0)),
        );
        // API 2: getproduct.
        let getproduct = t.add_api(
            ApiSpec::single(
                "getproduct",
                CallNode::with_children(
                    frontend,
                    ms_f(1.0),
                    vec![
                        CallNode::leaf(productcatalog, ms_f(1.5)),
                        CallNode::leaf(currency, ms_f(1.0)),
                        CallNode::with_children(
                            cart,
                            ms_f(0.5),
                            vec![CallNode::leaf(redis, ms_f(0.3))],
                        ),
                        CallNode::with_children(
                            recommendation,
                            ms_f(4.0),
                            vec![CallNode::leaf(productcatalog, ms_f(1.0))],
                        ),
                        CallNode::leaf(ad, ms_f(1.0)),
                    ],
                ),
            )
            .business(BusinessPriority(0)),
        );
        // API 3: getcart.
        let getcart = t.add_api(
            ApiSpec::single(
                "getcart",
                CallNode::with_children(
                    frontend,
                    ms_f(1.0),
                    vec![
                        CallNode::with_children(
                            cart,
                            ms_f(1.0),
                            vec![CallNode::leaf(redis, ms_f(0.3))],
                        ),
                        CallNode::with_children(
                            recommendation,
                            ms_f(4.0),
                            vec![CallNode::leaf(productcatalog, ms_f(1.0))],
                        ),
                        CallNode::leaf(currency, ms_f(1.0)),
                        CallNode::leaf(shipping, ms_f(1.0)),
                    ],
                ),
            )
            .business(BusinessPriority(0)),
        );
        // API 4: postcart.
        let postcart = t.add_api(
            ApiSpec::single(
                "postcart",
                CallNode::with_children(
                    frontend,
                    ms_f(1.0),
                    vec![
                        CallNode::leaf(productcatalog, ms_f(1.5)),
                        CallNode::with_children(
                            cart,
                            ms_f(1.5),
                            vec![CallNode::leaf(redis, ms_f(0.8))],
                        ),
                    ],
                ),
            )
            .business(BusinessPriority(0)),
        );
        // API 5: emptycart.
        let emptycart = t.add_api(
            ApiSpec::single(
                "emptycart",
                CallNode::with_children(
                    frontend,
                    ms_f(1.0),
                    vec![CallNode::with_children(
                        cart,
                        ms_f(1.0),
                        vec![CallNode::leaf(redis, ms_f(0.5))],
                    )],
                ),
            )
            .business(BusinessPriority(0)),
        );

        OnlineBoutique {
            topology: t,
            frontend,
            cart,
            productcatalog,
            currency,
            payment,
            shipping,
            email,
            checkout,
            recommendation,
            ad,
            redis,
            postcheckout,
            getproduct,
            getcart,
            postcart,
            emptycart,
        }
    }

    /// The five APIs in the paper's order (API 1..=5).
    pub fn apis(&self) -> [ApiId; 5] {
        [
            self.postcheckout,
            self.getproduct,
            self.getcart,
            self.postcart,
            self.emptycart,
        ]
    }
}

impl Default for OnlineBoutique {
    fn default() -> Self {
        Self::build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_eleven_services_and_five_apis() {
        let ob = OnlineBoutique::build();
        assert_eq!(ob.topology.num_services(), 11);
        assert_eq!(ob.topology.num_apis(), 5);
    }

    #[test]
    fn postcheckout_and_getproduct_share_recommend_and_product() {
        // The Figure 3 overload scenario requires these two APIs to share
        // the Recommendation and ProductCatalog services.
        let ob = OnlineBoutique::build();
        let p1 = ob.topology.api(ob.postcheckout).touched_services();
        let p2 = ob.topology.api(ob.getproduct).touched_services();
        for s in [ob.recommendation, ob.productcatalog] {
            assert!(p1.contains(&s), "postcheckout must touch {s}");
            assert!(p2.contains(&s), "getproduct must touch {s}");
        }
        assert!(p1.contains(&ob.checkout));
        assert!(!p2.contains(&ob.checkout));
    }

    #[test]
    fn business_priorities_equal_by_default() {
        // The paper assigns distinct priorities only in the Fig. 11/12
        // experiments; the default deployment treats APIs equally.
        let ob = OnlineBoutique::build();
        for api in ob.apis() {
            assert_eq!(ob.topology.api(api).business, BusinessPriority(0));
        }
    }

    #[test]
    fn recommendation_and_checkout_are_bottlenecks() {
        let ob = OnlineBoutique::build();
        // Serving capacity in requests/s for a call of `cost_ms` CPU-ms.
        let capacity_rps = |svc, cost_ms: f64| {
            let spec = ob.topology.service(svc);
            f64::from(spec.replicas) * spec.pod_speed * 1000.0 / cost_ms
        };
        let rec = capacity_rps(ob.recommendation, 4.0);
        let chk = capacity_rps(ob.checkout, 5.0);
        let front = capacity_rps(ob.frontend, 1.0);
        assert!(rec < 600.0, "recommendation cap {rec}");
        assert!(chk < 600.0, "checkout cap {chk}");
        assert!(front > 4000.0, "frontend cap {front}");
    }

    #[test]
    fn recommendation_crash_loops_cart_does_not() {
        let ob = OnlineBoutique::build();
        assert!(ob.topology.service(ob.recommendation).crash_on_overload);
        assert!(!ob.topology.service(ob.cart).crash_on_overload);
    }

    #[test]
    fn every_api_starts_at_frontend() {
        let ob = OnlineBoutique::build();
        for api in ob.apis() {
            let spec = ob.topology.api(api);
            for (_, root) in &spec.paths {
                assert_eq!(
                    root.service, ob.frontend,
                    "{} enters via frontend",
                    spec.name
                );
            }
        }
    }
}
