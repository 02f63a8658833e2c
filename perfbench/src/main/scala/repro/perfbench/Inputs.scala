package repro.perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.wechat.{RelationType, SocialGen}

/** A workload's inputs, as `LoCEC.run` takes them, plus the held-out test
  * edges it is scored on.
  *
  * The 80/20 split is the deterministic hash split of
  * `Experiments.setup`, repeated here because that function builds only the
  * default network from a user count; every workload uses this copy. */
final case class Inputs(edges: DataFrame, interactions: DataFrame,
                        userFeatures: collection.Map[Long, Array[Double]],
                        trainEdges: DataFrame, testEdges: DataFrame) {

  private def cached: Seq[DataFrame] = Seq(edges, interactions, trainEdges, testEdges)

  /** Cache and count every input (also after `spark.catalog.clearCache()`).
    * Returns the number of edges. */
  def materialise(): Long = {
    cached.foreach(_.cache())
    cached.tail.foreach(_.count())
    edges.count()
  }
}

object Inputs {

  def generate(spark: SparkSession, cfg: SocialGen.Config): Inputs = {
    import spark.implicits._
    val net = SocialGen.generate(spark, cfg)
    val edges = net.edges.toDF()
    val userFeatures: collection.Map[Long, Array[Double]] =
      net.users.collect().map(u => u.user -> SocialGen.userFeature(u)).toMap
    val withBucket = edges
      .where($"labeled" && $"label".isin(RelationType.Major: _*))
      .select("src", "dst", "label")
      .withColumn("bucket", pmod(xxhash64($"src", $"dst", lit(cfg.seed)), lit(10)))
    Inputs(edges, net.interactions.toDF(), userFeatures,
      trainEdges = withBucket.where($"bucket" < 8).drop("bucket"),
      testEdges = withBucket.where($"bucket" >= 8).drop("bucket"))
  }

  /** Exact counts describing a workload's input, so that a change can state
    * what share of the input has the property it optimises. Ego size is the
    * number of friends (the degree). */
  def census(spark: SparkSession, cfg: SocialGen.Config, in: Inputs): Seq[(String, Double)] = {
    import spark.implicits._
    val edges = in.edges.select("src", "dst").as[(Long, Long)].collect()
    val degree = new Array[Int](cfg.numUsers)
    edges.foreach { case (s, d) => degree(s.toInt) += 1; degree(d.toInt) += 1 }
    val sorted = degree.sorted.map(_.toDouble).toIndexedSeq
    Seq(
      "users" -> cfg.numUsers.toDouble,
      "edges" -> edges.length.toDouble,
      "mean_degree" -> 2.0 * edges.length / cfg.numUsers,
      "ego_size_p50" -> Main.percentile(sorted, 0.50),
      "ego_size_p99" -> Main.percentile(sorted, 0.99),
      "ego_size_max" -> sorted.last,
      "egos_gt40" -> degree.count(_ > 40).toDouble,
      "train_edges" -> in.trainEdges.count().toDouble,
      "test_edges" -> in.testEdges.count().toDouble)
  }
}
