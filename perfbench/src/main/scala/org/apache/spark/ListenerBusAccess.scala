package org.apache.spark

/** Spark's listener bus is private to the `org.apache.spark` package. Metrics
  * read from a `SparkListener` (or from the status store it feeds) are only
  * complete once the bus has delivered every event of the finished jobs. */
object ListenerBusAccess {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
